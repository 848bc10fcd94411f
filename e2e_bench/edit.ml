(* edit: one [Rats.Session] over a ~200 KB MiniJava document, driven by a
   seeded script of small edits; one operation is [Session.apply_edit]
   followed by [Session.reparse]. Memo reuse and relocation dominate;
   fresh memo writes happen only on cold fallbacks, after the ~2% of
   edits that leave the buffer invalid until the next edit repairs it.

   Every reparse is checked against a cold [Rats.parse] of the same
   buffer, well over 100 ms at this size, so the script holds 100
   distinct edits and passes replay it on a fresh session until the time
   is up. Every [stride]-th buffer's cold parse is checked in turn
   against the hand-written parser and the packrat reference, several
   times slower than the cold parse. *)

open Rats

let doc_bytes = 200 * 1024
let edits = 100
let stride = 20

let run ~seed ~seconds ~trace : Loop.report =
  let generated, text = Inputs.session_doc ~seed ~bytes:doc_bytes in
  let script = Inputs.script ~seed text ~n:edits in
  let setup = Layers.Setup.create [ Inputs.Minijava ] in
  let c = Layers.compile_traced (Trace.create ()) ~op:(-1) Inputs.Minijava in
  let got = Array.make (Array.length script.edits) [] in
  let keep k r = got.(k) <- Check.of_result r :: got.(k) in
  (* A fresh session and its cold first parse open every pass; they are
     not operations. *)
  let session () =
    let s = Session.create c.engine text in
    (s, Session.reparse s)
  in
  let untraced ~pass:_ record =
    let s, _ = session () in
    Array.iteri
      (fun k (e : Inputs.edit) ->
        let t0 = Meter.now () in
        Session.apply_edit s ~start:e.start ~old_len:e.old_len ~replacement:e.replacement;
        let r = Session.reparse s in
        record (Meter.ms_of_ns (Meter.now () - t0));
        keep k r)
      script.edits;
    Array.length script.edits
  in
  let tr = Trace.create () and acc = Layers.Acc.create () in
  let traced ~pass record =
    let s, _ = session () in
    (* [memo_reused] counts chunks under chunked memo, table entries
       otherwise; the cold parse is counted the same way. *)
    let cold = Session.stats s in
    Layers.Acc.add acc "session.cold_entries"
      (float_of_int
         (if cold.Stats.chunks_allocated > 0 then cold.chunks_allocated else cold.memo_stores));
    Array.iteri
      (fun k (e : Inputs.edit) ->
        let op = (pass * Array.length script.edits) + k in
        let fallbacks = Session.cold_fallbacks s in
        let gc0 = Layers.gc_mark () in
        let root = Trace.enter tr "op" ~op in
        Trace.span tr "session.apply_edit" ~op (fun () ->
            Session.apply_edit s ~start:e.start ~old_len:e.old_len ~replacement:e.replacement);
        let ri = Trace.enter tr "session.reparse" ~op in
        let r = Session.reparse s in
        Trace.leave tr ri;
        Trace.leave tr root;
        Layers.observe_gc acc gc0;
        record (Meter.ms_of_ns (Trace.elapsed tr root));
        let st = Session.stats s in
        Layers.Acc.add acc "session.memo_reused" (float_of_int st.Stats.memo_reused);
        Layers.Acc.add acc "session.memo_relocated" (float_of_int st.Stats.memo_relocated);
        if Session.cold_fallbacks s > fallbacks then begin
          Layers.Acc.add acc "session.fallback_ms" (Meter.ms_of_ns (Trace.elapsed tr ri));
          if pass = 0 then Layers.Acc.add acc "session.cold_fallbacks" 1.
        end;
        keep k r)
      script.edits;
    Array.length script.edits
  in
  let untraced, traced =
    Loop.measure ~trace ~seconds ~between:(fun () -> Layers.Setup.sample setup) ~untraced ~traced
  in
  let tally = Loop.tally () and packrat = Check.packrat Inputs.Minijava in
  if trace then begin
    let c = Layers.compile_traced tr ~op:(-1) Inputs.Minijava in
    Layers.structure acc c;
    Layers.pass_probes tr c;
    (* The parse layer reaches this workload only through cold parses: a
       cold [Engine.run] of every 25th buffer of the script. *)
    let buffers = ref [] and buf = ref text in
    Array.iteri
      (fun k e ->
        buf := Inputs.apply !buf e;
        if k mod 25 = 24 then buffers := !buf :: !buffers)
      script.edits;
    List.iter
      (fun b ->
        let o, ns, alloc = Layers.timed_run tr "probe.cold_parse.minijava" c.engine b in
        Layers.observe_parse acc Inputs.Minijava ~ns o ~alloc_words:alloc)
      (List.rev !buffers);
    Layers.backend_probes tr acc c [ text ];
    Layers.output_probe tr acc tally c ~packrat [ text ]
  end;
  (* Each buffer of the script against a cold parse of it. *)
  let reference = Layers.compile Inputs.Minijava in
  let malformed = ref 0 and buf = ref text in
  Array.iteri
    (fun k e ->
      buf := Inputs.apply !buf e;
      let cold = Check.of_result (Rats.parse reference !buf) in
      (match cold with Check.Tree _ -> () | _ -> incr malformed);
      let disagrees =
        if k mod stride <> 0 then None
        else
          let want = Check.expected ~packrat Inputs.Minijava !buf in
          if Check.agrees cold want then None
          else
            Some
              (Printf.sprintf "a cold parse (%s) disagrees with the reference (%s)"
                 (Check.describe_got cold) (Check.describe_expected want))
      in
      List.iter
        (fun g ->
          Loop.check tally (g = cold && disagrees = None) ~what:(fun () ->
              Printf.sprintf "edit %d of the script (seed %d): %s" k seed
                (match disagrees with
                | Some d -> d
                | None ->
                    Printf.sprintf "reparse (%s) disagrees with a cold parse (%s)"
                      (Check.describe_got g) (Check.describe_got cold))))
        got.(k))
    script.edits;
  let verdict t = if Result.is_ok (Grammars.Minijava.parse_hand t) then "accepted" else "rejected" in
  Report.result ~workload:"edit" ~seed ~is_root:(( = ) "op") ~setup_s:(Layers.Setup.median setup)
    ~untraced ~traced tr acc tally
    [
      Layers.Setup.note setup;
      Printf.sprintf
        "malformed share: %d of %d buffers rejected by the reference (%.1f%%; %d breaking edits)"
        !malformed edits (100. *. float_of_int !malformed /. float_of_int edits) script.breaking;
      Printf.sprintf
        "session document: %d bytes, %s by the hand-written parser; the generated program with \
         class C0 (%d bytes) is %s"
        (String.length text) (verdict text) (String.length generated) (verdict generated);
    ]
