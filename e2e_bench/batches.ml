(* batch: two [Batch.run] streams, JSON and calc, about 1,000 documents
   each. Cold parses dominate; set-up and output cost almost nothing.
   JSON writes memo entries it never hits while calc depends on them, so
   a memo-policy change shows both its gain and its cost here. Budgets
   are tight enough that a few calc documents trip on the full rung and
   are rescued on the recognizer rung: they form the tail. No deadlines,
   so no verdict depends on the clock. *)

open Rats

let docs_per_stream = 1000
let limits = Limits.v ~fuel:10_500 ~max_memo_bytes:(220 * 1024) ()

(* A record's verdict: [None] for an accepted document, whose tree is
   checked after the loop, from a run of the same engine configuration
   ([Config.optimized]), against the packrat reference's. *)
let failure (r : Batch.record) =
  match r.r_fail with
  | None -> None
  | Some Batch.Syntax -> Some (Check.Error_at (r.r_position, []))
  | Some (Batch.Resource which) -> Some (Check.Tripped ("resource trip: " ^ which))
  | Some Batch.Io -> Some (Check.Tripped "io")
  | Some Batch.Internal -> Some (Check.Tripped ("internal: " ^ r.r_message))

type stream = {
  s : Inputs.stream;
  c : Layers.compiled;
  docs : string array;
  got : Check.got option list array;  (* every pass's verdict per document *)
}

(* One [Batch.run] over a stream. [on_doc k r ~start ~stop] sees each
   record with the interval since the previous callback returned; the
   benchmark's own bookkeeping stays outside those intervals. *)
let run_stream st ~on_doc =
  let last = ref (Meter.now ()) and k = ref 0 in
  let on_record r =
    let stop = Meter.now () in
    on_doc !k r ~start:!last ~stop;
    st.got.(!k) <- failure r :: st.got.(!k);
    incr k;
    last := Meter.now ()
  in
  match Batch.run ~limits ~on_record st.c.optimized (Batch.Docs st.s.docs) with
  | Ok _ -> !k
  | Error _ -> failwith "Batch.run: the grammar did not compile"

let run ~seed ~seconds ~trace : Loop.report =
  let grammars = [ Inputs.Json; Inputs.Calc ] in
  let setup = Layers.Setup.create grammars in
  let streams =
    List.map
      (fun g ->
        let s = Inputs.stream ~seed g ~n:docs_per_stream in
        {
          s;
          c = Layers.compile_traced (Trace.create ()) ~op:(-1) g;
          docs = Array.of_list (List.map snd s.docs);
          got = Array.make docs_per_stream [];
        })
      grammars
  in
  let untraced ~pass:_ record =
    List.fold_left
      (fun n st -> n + run_stream st ~on_doc:(fun _ _ ~start ~stop -> record (Meter.ms_of_ns (stop - start))))
      0 streams
  in
  let tr = Trace.create () and acc = Layers.Acc.create () in
  (* every traced pass's latency of each document, for isolation *)
  let doc_ms = List.map (fun _ -> Array.make docs_per_stream []) streams in
  let traced ~pass record =
    List.fold_left2
      (fun n st lat ->
        let tag = Inputs.name st.s.sg in
        let base = (pass * 2 * docs_per_stream) + n in
        let gc = ref (Layers.gc_mark ()) in
        let bi = Trace.enter tr ("batch.run." ^ tag) ~op:(-1) in
        let count =
          run_stream st ~on_doc:(fun k r ~start ~stop ->
              Trace.add tr ("batch.doc." ^ tag) ~op:(base + k) ~start ~stop;
              let ms = Meter.ms_of_ns (stop - start) in
              record ms;
              Layers.observe_gc acc !gc;
              gc := Layers.gc_mark ();
              lat.(k) <- ms :: lat.(k);
              if pass = 0 then begin
                let count key v =
                  Layers.Acc.add acc ("batch." ^ key) v;
                  Layers.Acc.add acc (Printf.sprintf "batch.%s.%s" tag key) v
                in
                count "fuel_used" (float_of_int r.Batch.r_fuel_used);
                count "memo_degraded" (float_of_int r.r_memo_degraded);
                if r.r_retried then begin
                  count "retries" 1.;
                  Layers.Acc.add acc "batch.retry_ms" ms
                end;
                match r.r_fail with
                | None -> ()
                | Some Batch.Syntax -> Layers.Acc.add acc "batch.fail.syntax" 1.
                | Some (Batch.Resource _) -> Layers.Acc.add acc "batch.fail.resource" 1.
                | Some Batch.Io -> Layers.Acc.add acc "batch.fail.io" 1.
                | Some Batch.Internal -> Layers.Acc.add acc "batch.fail.internal" 1.
              end)
        in
        Trace.leave tr bi;
        n + count)
      0 streams doc_ms
  in
  let untraced, traced =
    Loop.measure ~trace ~seconds ~between:(fun () -> Layers.Setup.sample setup) ~untraced ~traced
  in
  let tally = Loop.tally () in
  let packrats = List.map (fun st -> Check.packrat st.s.sg) streams in
  if trace then
    List.iter2
      (fun (st, packrat) lat ->
        let tag = Inputs.name st.s.sg in
        let c = Layers.compile_traced tr ~op:(-1) st.s.sg in
        Layers.structure acc c;
        Layers.pass_probes tr c;
        (* Batch isolation: a sampled document's median latency in the
           stream minus the median of three bare [Engine.run]s of it
           under the same budgets. The stream's first document, which
           waits for the compile, and documents the ladder retried are
           left out. *)
        let bare =
          Check.fail_on_errors "bare"
            (Engine.prepare ~config:(Config.with_limits limits Config.optimized) c.optimized)
        in
        let sample = ref [] in
        Array.iteri
          (fun k text ->
            if k mod 10 = 5 then begin
              sample := text :: !sample;
              let runs =
                List.init 3 (fun _ -> Layers.timed_run tr ("probe.bare." ^ tag) bare text)
              in
              let o, _, alloc = List.hd runs in
              let ns = Meter.middle (Array.of_list (List.map (fun (_, ns, _) -> float_of_int ns) runs)) in
              Layers.observe_parse acc st.s.sg ~ns:(int_of_float ns) o ~alloc_words:alloc;
              match o.Engine.result with
              | Error e when Parse_error.exhausted_which e <> None -> ()
              | _ ->
                  let iso = Meter.middle (Array.of_list lat.(k)) -. Meter.ms_of_ns (int_of_float ns) in
                  Layers.Acc.add acc "batch.isolation_ms" iso;
                  Layers.Acc.add acc (Printf.sprintf "batch.%s.isolation_ms" tag) iso
            end)
          st.docs;
        let sample = List.rev !sample in
        Layers.backend_probes tr acc c sample;
        Layers.output_probe tr acc tally c ~packrat sample)
      (List.combine streams packrats) doc_ms;
  let malformed = ref 0 in
  List.iter2
    (fun st packrat ->
      Array.iteri
        (fun k text ->
          let want = Check.expected ~packrat st.s.sg text in
          (match want with Check.Accept _ -> () | _ -> incr malformed);
          let tree = lazy (Check.of_result (Rats.parse st.c.engine text)) in
          List.iter
            (fun failure ->
              let got = match failure with None -> Lazy.force tree | Some g -> g in
              Loop.check tally (Check.agrees got want) ~what:(fun () ->
                  Printf.sprintf "document %s (%d bytes, seed %d): got %s, reference %s"
                    (fst (List.nth st.s.docs k)) (String.length text) seed
                    (Check.describe_got got) (Check.describe_expected want)))
            st.got.(k))
        st.docs)
    streams packrats;
  let total = docs_per_stream * List.length streams in
  Report.result ~workload:"batch" ~seed
    ~is_root:(fun n -> Trace.layer_of n = "batch")
    ~setup_s:(Layers.Setup.median setup) ~untraced ~traced tr acc tally
    ([
       Layers.Setup.note setup;
       Printf.sprintf
         "malformed share: %d of %d documents rejected by the reference (%.1f%%; %d mutated)"
         !malformed total (100. *. float_of_int !malformed /. float_of_int total)
         (List.fold_left (fun n st -> n + st.s.mutated) 0 streams);
       Printf.sprintf "budgets per document: %s" (Limits.describe limits);
     ]
    @
    if trace then
      [
        Printf.sprintf "ladder: %.0f documents retried on the recognizer rung per pass"
          (Layers.Acc.sum acc "batch.retries");
      ]
    else [])
