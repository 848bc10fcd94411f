(* The generated-code contract: a parser emitted by the code generator
   accepts exactly the same inputs as the interpretive engine and the
   reference interpreter, and builds structurally equal trees. *)

open Rats

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* Generated parsers are emitted from the optimized grammar; the engine
   and the reference parse that same grammar. *)
let agree name g generated inputs =
  let g = Pipeline.optimize g in
  let eng = Engine.prepare_exn ~config:Config.optimized g in
  List.iteri
    (fun i input ->
      let fail fmt = Alcotest.failf ("%s #%d %S: " ^^ fmt) name i input in
      let gen = generated input in
      (match (Engine.parse eng input, gen) with
      | Ok a, Ok b ->
          if not (Value.equal a b) then
            fail "trees differ\n%s\nvs\n%s" (Value.to_string a)
              (Value.to_string b)
      | Error _, Error _ -> ()
      | Ok _, Error e -> fail "generated rejects (%s)" e
      | Error e, Ok _ ->
          fail "generated accepts (engine: %s)" (Parse_error.message e));
      match ((Reference.parse g input).Reference.result, gen) with
      | Ok a, Ok b ->
          if not (Value.equal a b) then
            fail "trees differ from the reference\n%s\nvs\n%s"
              (Value.to_string a) (Value.to_string b)
      | Error _, Error _ -> ()
      | Ok _, Error e -> fail "generated rejects (%s), the reference accepts" e
      | Error f, Ok _ ->
          fail "generated accepts, the reference rejects at %d"
            f.Reference.position)
    inputs

let calc_tests =
  [
    test "hand-picked calculator inputs" (fun () ->
        let g = Grammars.Calc.grammar () in
        agree "calc" g Generated_calc.parse
          [
            "1+2*3"; "2**3**2"; "(1+2)*3"; "8/4/2"; " 1 + 2 "; "1+"; "";
            "((7))"; "3.25*4"; "1..2"; ")(";
          ]);
    test "random calculator corpus" (fun () ->
        let g = Grammars.Calc.grammar () in
        let rng = Rng.create 1234 in
        let inputs =
          List.init 100 (fun _ -> Grammars.Corpus.arith rng ~size:15)
        in
        agree "calc-corpus" g Generated_calc.parse inputs);
    test "parse_from picks other start productions" (fun () ->
        (* Spacing is inlined away by the optimizer; Sum survives. *)
        match Generated_calc.parse_from "Sum" "1+1" with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "sum: %s" e);
    test "unknown start reports an error" (fun () ->
        match Generated_calc.parse_from "Nope" "x" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    test "eval agrees through the generated parser" (fun () ->
        match Generated_calc.parse "2**3 + 1" with
        | Ok v ->
            check (Alcotest.float 1e-9) "value" 9.0 (Grammars.Calc.eval v)
        | Error e -> Alcotest.failf "parse: %s" e);
  ]

let json_tests =
  [
    test "hand-picked JSON inputs" (fun () ->
        let g = Grammars.Json.grammar () in
        agree "json" g Generated_json.parse
          [
            "{}"; "[]"; "null"; "true"; "-12.5e3"; {|{"a": [1, {"b": null}]}|};
            {|"esc\"aped"|}; "[1,]"; "{"; "01"; {| [true, false] |};
          ]);
    test "random JSON corpus" (fun () ->
        let g = Grammars.Json.grammar () in
        let rng = Rng.create 77 in
        let inputs =
          List.init 60 (fun _ -> Grammars.Corpus.json rng ~size:20)
        in
        agree "json-corpus" g Generated_json.parse inputs);
  ]

let minic_tests =
  [
    test "stateful generated parser handles typedefs" (fun () ->
        (* The generated code carries the state tables and the versioned
           memo guards; this is the execution test for both. *)
        let ok s = Result.is_ok (Generated_minic.parse s) in
        Alcotest.(check bool) "with typedef" true
          (ok "typedef int t; void f() { t x; }");
        Alcotest.(check bool) "without typedef" false
          (ok "void f() { t x; }");
        Alcotest.(check bool) "rollback" true
          (ok "typedef int t; void f(int a, int b) { a * b; }"));
    test "generated MiniC parser agrees with the engine on the corpus"
      (fun () ->
        let g = Grammars.Minic.grammar () in
        let inputs =
          List.init 10 (fun seed ->
              Grammars.Corpus.minic (Rng.create (100 + seed)) ~functions:2)
        in
        agree "minic-corpus" g Generated_minic.parse inputs);
    test "generated MiniC parser rejects extension syntax" (fun () ->
        Alcotest.(check bool) "until" true
          (Result.is_error
             (Generated_minic.parse "void f(int a) { until (a) a++; }")));
  ]

let java_tests =
  [
    test "generated MiniJava parser agrees with the engine on the corpus"
      (fun () ->
        let g = Grammars.Minijava.grammar () in
        let inputs =
          List.init 10 (fun seed ->
              Grammars.Corpus.minijava (Rng.create (200 + seed)) ~classes:2)
        in
        agree "java-corpus" g Generated_java.parse inputs);
    test "generated MiniJava parser error positions are deep" (fun () ->
        match Generated_java.parse "class A { int f() { return 1 + ; } }" with
        | Error msg ->
            Alcotest.(check bool) "offset in message" true
              (String.length msg > 0)
        | Ok _ -> Alcotest.fail "expected error");
  ]

let () =
  Alcotest.run "generated"
    [
      ("calc", calc_tests); ("json", json_tests); ("minic", minic_tests);
      ("java", java_tests);
    ]
