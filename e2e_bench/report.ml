(* A workload's report: its end-to-end metrics; or, after a traced run,
   its per-layer metrics with the per-layer table, the tracing overhead
   and the chrome-trace file written beside them. *)

let out_dir = ".bench_out"

let result ~workload ~seed ~is_root ~setup_s ~untraced ~traced tr acc (tally : Loop.tally) notes
    : Loop.report =
  let e2e, tail_note = Loop.end_to_end ~setup_s untraced in
  let notes = (tail_note :: notes) @ tally.first in
  let report metrics notes =
    { Loop.metrics; attempted = tally.checked; failed = tally.mismatched; notes }
  in
  match traced with
  | None -> report e2e notes
  | Some loop ->
      let traced_e2e, _ = Loop.end_to_end ~setup_s loop in
      let spans = Trace.spans tr in
      let rows, ops = Trace.layer_table ~is_root spans in
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
      Trace.write_chrome path spans;
      report (Layers.metrics spans acc)
        (notes
        @ Trace.table_lines ~workload rows ~ops
        @ [ Printf.sprintf "tracing overhead, workload %s (traced loop minus untraced loop):" workload ]
        @ Loop.overhead ~untraced:e2e ~traced:traced_e2e
        @ [ Printf.sprintf "chrome trace: %s (%d spans)" path (Array.length spans) ])
