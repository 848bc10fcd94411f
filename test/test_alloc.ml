(* The lean-path allocation contract (DESIGN.md, "Memory
   architecture"): in recognizer mode no construct allocates, so
   steady-state bytes/parse is independent of input size. The probe's
   ladder isolates one construct per rung — a leak reintroduced in
   the engine fails here naming the construct, without waiting for
   the E9 bench gate. The measurements are [Gc.allocated_bytes] deltas
   over deterministic parses with warmed pools, so the numbers are
   exact, not sampled: this suite is noise-free by construction. *)

open Rats
module Probe = Rats_probe.Alloc_probe

let sizes = [ 4_000; 16_000; 64_000 ]

let pp_rows rows =
  String.concat ", "
    (List.map (fun (b, a) -> Printf.sprintf "%d:%.0f" b a) rows)

let configs = [ ("closure", Config.optimized) ]

let ladder_tests =
  List.concat_map
    (fun (backend, config) ->
      List.map
        (fun (rung : Probe.rung) ->
          Alcotest.test_case
            (Printf.sprintf "%s is allocation-free (%s)" rung.Probe.r_name
               backend)
            `Quick
            (fun () ->
              let rows = Probe.measure_rung ~config ~sizes rung in
              if not (Probe.flat rows) then
                Alcotest.failf
                  "%s/%s: lean-path allocation grows with input (%s)"
                  rung.Probe.r_name backend (pp_rows rows)))
        (Probe.ladder ()))
    configs

let corpora =
  [
    ( "calc",
      Grammars.Calc.grammar (),
      fun scale -> Grammars.Corpus.arith (Rng.create 7) ~size:(2_000 * scale) );
    ( "minijava",
      Grammars.Minijava.grammar (),
      fun scale -> Grammars.Corpus.minijava (Rng.create 7) ~classes:(3 * scale) );
  ]

(* The composed claim on real grammars: kind-erased calc and MiniJava
   (what [--recognize] and the degradation ladder run) parse seeded
   corpora grown 16x at constant bytes/parse. *)
let voidified_tests =
  List.concat_map
    (fun (backend, config) ->
      List.map
        (fun (gname, grammar, corpus_at) ->
          Alcotest.test_case
            (Printf.sprintf "voidified %s is size-independent (%s)" gname
               backend)
            `Quick
            (fun () ->
              let g = Pipeline.optimize (Probe.voidify grammar) in
              let eng = Engine.prepare_exn ~config g in
              let rows =
                List.map
                  (fun scale ->
                    let corpus = corpus_at scale in
                    ( String.length corpus,
                      Probe.bytes_per_parse eng (Input.of_string corpus) ))
                  [ 1; 4; 16 ]
              in
              if not (Probe.flat rows) then
                Alcotest.failf
                  "voidified %s/%s: allocation grows with input (%s)" gname
                  backend (pp_rows rows)))
        corpora)
    configs

(* A rung or grammar that stopped parsing its input would allocate
   nothing and pass the suites above vacuously, so each one is also held
   to the reference interpreter: the rung grammars as written and
   voidified, on accepted tiles and on a tile with a foreign last byte;
   the voidified grammars on their seeded corpora, optimized as the
   suites above run them against the reference on the unoptimized
   grammar. *)
let agree ~config g input =
  let out = Engine.run (Engine.prepare_exn ~config g) input in
  Option.iter Alcotest.fail (Oracle.mismatch ~config g input out);
  out

let reference_tests =
  let config = Config.optimized in
  List.map
    (fun (rung : Probe.rung) ->
      Alcotest.test_case
        (Printf.sprintf "%s parses as the reference does" rung.Probe.r_name)
        `Quick
        (fun () ->
          List.iter
            (fun g ->
              List.iter
                (fun size ->
                  let input = Probe.tile rung.Probe.r_unit size in
                  let out = agree ~config g input in
                  Alcotest.(check bool) "tile accepted" true
                    (Result.is_ok out.Engine.result);
                  ignore
                    (agree ~config g
                       (String.sub input 0 (String.length input - 1) ^ "\001")))
                [ 1; 200; 2_000 ])
            [ rung.Probe.r_grammar; Probe.voidify rung.Probe.r_grammar ]))
    (Probe.ladder ())
  @ List.map
      (fun (gname, grammar, corpus_at) ->
        Alcotest.test_case
          (Printf.sprintf "voidified %s parses as the reference does" gname)
          `Quick
          (fun () ->
            let void = Probe.voidify grammar in
            let eng = Engine.prepare_exn ~config (Pipeline.optimize void) in
            List.iter
              (fun scale ->
                let corpus = corpus_at scale in
                let out = Engine.run eng corpus in
                Alcotest.(check bool) "corpus accepted" true
                  (Result.is_ok out.Engine.result);
                Option.iter Alcotest.fail
                  (Oracle.mismatch ~config void corpus out))
              [ 1; 4 ]))
      corpora

let () =
  Alcotest.run "alloc"
    [
      ("lean-ladder", ladder_tests);
      ("voidified", voidified_tests);
      ("reference", reference_tests);
    ]
