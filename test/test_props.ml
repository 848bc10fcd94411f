(* Property-based tests (qcheck, registered as alcotest cases).

   The central property of the whole system: every engine configuration
   and every optimization pass is observationally equivalent on random
   well-formed grammars and random inputs. Grammars are generated
   stratified (production i only references productions j > i) so they
   are never recursive; recursion is covered by handcrafted tests — what
   randomness buys here is coverage of operator interaction, which is
   where the subtle value-shape bugs live. *)

open Rats
module Gen = QCheck.Gen

let alphabet = [ 'a'; 'b'; 'c'; 'd' ]

(* --- generators ---------------------------------------------------------------- *)

let gen_char = Gen.oneofl alphabet

let gen_charset st =
  let s = ref Charset.empty in
  List.iter (fun c -> if Gen.bool st then s := Charset.add c !s) alphabet;
  if Charset.is_empty !s then Charset.singleton 'a' else !s

let gen_short_string st =
  let n = 1 + Gen.int_bound 2 st in
  String.init n (fun _ -> gen_char st)

(* A generated expression, together with whether it is guaranteed to
   consume input on success (needed for repetition bodies). *)
let rec gen_expr ~refs ~depth st : Expr.t =
  if depth <= 0 then gen_leaf ~refs st
  else
    match Gen.int_bound 13 st with
    | 0 | 1 ->
        Expr.seq
          (List.init (2 + Gen.int_bound 1 st) (fun _ ->
               gen_expr ~refs ~depth:(depth - 1) st))
    | 2 | 3 ->
        let label i =
          if Gen.bool st then Some (Printf.sprintf "L%d" i) else None
        in
        Expr.alt_labeled
          (List.mapi
             (fun i body -> { Expr.label = label i; body })
             (List.init (2 + Gen.int_bound 1 st) (fun _ ->
                  gen_expr ~refs ~depth:(depth - 1) st)))
    | 4 -> Expr.star (gen_consuming ~refs ~depth:(depth - 1) st)
    | 5 -> Expr.plus (gen_consuming ~refs ~depth:(depth - 1) st)
    | 6 -> Expr.opt (gen_expr ~refs ~depth:(depth - 1) st)
    | 7 -> Expr.and_ (gen_expr ~refs ~depth:(depth - 1) st)
    | 8 -> Expr.not_ (gen_expr ~refs ~depth:(depth - 1) st)
    | 9 -> Expr.bind "x" (gen_expr ~refs ~depth:(depth - 1) st)
    | 10 -> Expr.token (gen_expr ~refs ~depth:(depth - 1) st)
    | 11 -> Expr.node "N" (gen_expr ~refs ~depth:(depth - 1) st)
    | 12 -> Expr.drop (gen_expr ~refs ~depth:(depth - 1) st)
    | _ ->
        if Gen.bool st then
          Expr.record "T" (gen_consuming ~refs ~depth:(depth - 1) st)
        else Expr.member "T" (Gen.bool st) (gen_consuming ~refs ~depth:(depth - 1) st)

and gen_leaf ~refs st =
  match Gen.int_bound 5 st with
  | 0 -> Expr.chr (gen_char st)
  | 1 -> Expr.str (gen_short_string st)
  | 2 -> Expr.cls (gen_charset st)
  | 3 -> Expr.empty
  | 4 -> (
      match refs with
      | [] -> Expr.chr (gen_char st)
      | _ -> Expr.ref_ (List.nth refs (Gen.int_bound (List.length refs - 1) st)))
  | _ -> Expr.any ()

and gen_consuming ~refs ~depth st =
  (* Guaranteed to consume at least one byte on success: a consuming
     leaf, optionally followed by anything. *)
  let leaf =
    match Gen.int_bound 2 st with
    | 0 -> Expr.chr (gen_char st)
    | 1 -> Expr.cls (gen_charset st)
    | _ -> Expr.str (gen_short_string st)
  in
  if depth > 0 && Gen.bool st then
    Expr.seq [ leaf; gen_expr ~refs ~depth:(depth - 1) st ]
  else leaf

let gen_grammar st : Grammar.t =
  let n = 2 + Gen.int_bound 2 st in
  let name i = Printf.sprintf "P%d" i in
  let prods =
    List.init n (fun i ->
        let refs = List.init (n - i - 1) (fun j -> name (i + j + 1)) in
        let kind =
          match Gen.int_bound 6 st with
          | 0 -> Attr.Generic
          | 1 -> Attr.Text
          | 2 -> Attr.Void
          | _ -> Attr.Plain
        in
        Production.v
          ~attrs:(Attr.v ~kind ~visibility:Attr.Private ())
          (name i)
          (gen_expr ~refs ~depth:3 st))
  in
  Grammar.make_exn ~start:"P0" prods

(* Directed input: walk the grammar, producing a string that has a fair
   chance of matching (predicates and state make it inexact, which is
   good — failures exercise backtracking). *)
let gen_input g st =
  let buf = Buffer.create 32 in
  let rec walk budget (e : Expr.t) =
    if !budget <= 0 then ()
    else
      match e.Expr.it with
      | Expr.Empty | Expr.Fail _ -> ()
      | Expr.Any -> Buffer.add_char buf (gen_char st)
      | Expr.Chr c -> Buffer.add_char buf c
      | Expr.Str s -> Buffer.add_string buf s
      | Expr.Cls set -> (
          match Charset.choose set with
          | Some c -> Buffer.add_char buf c
          | None -> ())
      | Expr.Ref n -> (
          decr budget;
          match Grammar.find g n with
          | Some p -> walk budget p.Production.expr
          | None -> ())
      | Expr.Seq es -> List.iter (walk budget) es
      | Expr.Alt alts ->
          let i = Gen.int_bound (List.length alts - 1) st in
          walk budget (List.nth alts i).Expr.body
      | Expr.Star x ->
          for _ = 1 to Gen.int_bound 2 st do
            walk budget x
          done
      | Expr.Plus x ->
          for _ = 1 to 1 + Gen.int_bound 1 st do
            walk budget x
          done
      | Expr.Opt x -> if Gen.bool st then walk budget x
      | Expr.And _ | Expr.Not _ -> ()
      | Expr.Bind (_, x) | Expr.Token x | Expr.Node (_, x) | Expr.Drop x
      | Expr.Splice x | Expr.Record (_, x) | Expr.Member (_, _, x) ->
          walk budget x
  in
  (match Grammar.find g (Grammar.start g) with
  | Some p -> walk (ref 40) p.Production.expr
  | None -> ());
  (* Random mutation keeps rejecting inputs in the mix. *)
  let s = Buffer.contents buf in
  if Gen.bool st || String.length s = 0 then s
  else
    let i = Gen.int_bound (String.length s - 1) st in
    String.mapi (fun j c -> if j = i then gen_char st else c) s

(* A well-formed grammar plus a batch of inputs. *)
let gen_case st =
  let rec retry k =
    let g = gen_grammar st in
    if Analysis.check (Analysis.analyze g) = [] then g
    else if k > 50 then Grammar.make_exn [ Production.v "P0" (Expr.chr 'a') ]
    else retry (k + 1)
  in
  let g = retry 0 in
  let inputs = List.init 8 (fun _ -> gen_input g st) in
  (g, inputs)

let print_case (g, inputs) =
  Printf.sprintf "grammar:\n%s\ninputs: %s"
    (Pretty.grammar_to_string g)
    (String.concat ", " (List.map (Printf.sprintf "%S") inputs))

let arb_case = QCheck.make ~print:print_case gen_case

(* --- equivalence properties ------------------------------------------------------ *)

type observation = Accept of Value.t | Reject of int

let observe eng input =
  match Engine.parse eng input with
  | Ok v -> Accept v
  | Error e -> Reject e.Parse_error.position

let obs_equal a b =
  match (a, b) with
  | Accept va, Accept vb -> Value.equal va vb
  | Reject pa, Reject pb -> pa = pb
  | Accept _, Reject _ | Reject _, Accept _ -> false

let equivalent ?(observe_errors = true) name count make_reference make_other =
  QCheck.Test.make ~name ~count arb_case (fun (g, inputs) ->
      match (make_reference g, make_other g) with
      | Ok e1, Ok e2 ->
          List.for_all
            (fun input ->
              let a = observe e1 input and b = observe e2 input in
              if observe_errors then obs_equal a b
              else
                match (a, b) with
                | Accept _, Accept _ | Reject _, Reject _ -> true
                | _ -> false)
            inputs
      | Error _, Error _ -> true (* both reject the grammar: fine *)
      | _ -> false)

let prepare_with cfg g = Engine.prepare ~config:cfg g

let engine_props =
  [
    equivalent "naive = packrat (values and error positions)" 300
      (prepare_with Config.naive)
      (prepare_with Config.packrat);
    equivalent "packrat = chunked+transient" 300
      (prepare_with Config.packrat)
      (prepare_with (Config.v ~memo:Config.Chunked ~honor_transient:true ()));
    (* Dispatch may drop doomed alternatives' expected-entries but must
       never change acceptance or values; error positions are preserved
       (see the FIRST-set argument in the engine). *)
    equivalent "packrat = fully optimized" 300
      (prepare_with Config.naive)
      (prepare_with Config.optimized);
    equivalent "dispatch alone changes nothing observable" 200
      (prepare_with Config.packrat)
      (prepare_with (Config.v ~dispatch:true ()));
    equivalent "lean values alone change nothing observable" 200
      (prepare_with Config.packrat)
      (prepare_with (Config.v ~lean_values:true ()));
    equivalent "parsing is deterministic" 100
      (prepare_with Config.optimized)
      (prepare_with Config.optimized);
  ]

let pass_props =
  [
    equivalent "optimize pipeline preserves values" 200
      (prepare_with Config.naive)
      (fun g -> Engine.prepare ~config:Config.optimized (Pipeline.optimize g));
    equivalent "factoring preserves values" 200
      (prepare_with Config.naive)
      (fun g ->
        Engine.prepare ~config:Config.packrat (Passes.factor_prefixes g));
    equivalent "inlining preserves values" 200
      (prepare_with Config.naive)
      (fun g -> Engine.prepare ~config:Config.packrat (Passes.inline_pass g));
    equivalent "folding preserves values" 200
      (prepare_with Config.naive)
      (fun g ->
        Engine.prepare ~config:Config.packrat (Passes.fold_duplicates g));
    equivalent ~observe_errors:false
      "repetition desugaring preserves acceptance" 200
      (prepare_with Config.packrat)
      (fun g ->
        Engine.prepare ~config:Config.packrat (Desugar.expand_repetitions g));
  ]

(* --- registry passes, one suite per registered name ---------------------------------- *)

(* Generated from the canonical registry, so a pass added there is
   property-tested here with no further wiring. The observation is
   stronger than [obs_equal] above: the expected set at the farthest
   failure must survive each pass too. Leaf-matcher descriptions ('x',
   "ab", [a-c], any character) are compared verbatim; predicate
   descriptions ("not ..." and "&...") quote their operand's syntax,
   which structural passes rewrite by design, so those are compared
   only by their presence.
   The first arm runs the untransformed and the transformed grammar
   under the same engine configuration, so only the pass itself is under
   test; the second checks the engine on the transformed grammar against
   the reference interpreter on the original one. *)

type full_obs = FAccept of Value.t | FReject of int * string list

let normalize_expected descs =
  List.sort_uniq compare
    (List.map
       (fun d ->
         if String.length d >= 4 && String.equal (String.sub d 0 4) "not " then
           "not <predicate>"
         else if String.length d >= 1 && d.[0] = '&' then "&<predicate>"
         else d)
       descs)

let full_of_result = function
  | Ok v -> FAccept v
  | Error e ->
      FReject (e.Parse_error.position, normalize_expected e.Parse_error.expected)

let observe_full eng input = full_of_result (Engine.parse eng input)

let full_equal a b =
  match (a, b) with
  | FAccept va, FAccept vb -> Value.equal va vb
  | FReject (pa, ea), FReject (pb, eb) -> pa = pb && ea = eb
  | FAccept _, FReject _ | FReject _, FAccept _ -> false

let apply_pass (p : Pass.t) g =
  (Driver.run_exn ~gate:false [ p ] g).Driver.grammar

let registry_pass_props =
  List.concat_map
    (fun (p : Pass.t) ->
      let prop oracle check =
        QCheck.Test.make
          ~name:
            (Printf.sprintf "%s preserves values, positions, expected (%s)"
               p.Pass.name oracle)
          ~count:120 arb_case
          (fun (g, inputs) ->
            match
              (prepare_with Config.packrat g,
               prepare_with Config.packrat (apply_pass p g))
            with
            | Ok e1, Ok e2 ->
                List.for_all (fun input -> check g e1 e2 input) inputs
            | Error _, Error _ -> true
            | _ -> false)
      in
      [
        prop "closure" (fun _ e1 e2 input ->
            full_equal (observe_full e1 input) (observe_full e2 input));
        prop "reference" (fun g _ e2 input ->
            Oracle.agrees ~descs:normalize_expected ~config:Config.packrat g
              input (Engine.run e2 input));
      ])
    (Pipeline.all_passes ())

(* --- reference interpreter ---------------------------------------------------------------- *)

(* The reference interpreter (test/reference) is the executable
   specification of the engine: same values, same success offsets, same
   farthest-failure positions and — without dispatch — the same expected
   sets, across every memo strategy. *)

let reference_props =
  let agree ?(require_eof = true) name count cfg =
    QCheck.Test.make ~name ~count arb_case (fun (g, inputs) ->
        match prepare_with cfg g with
        | Error _ -> Oracle.refused g
        | Ok eng ->
            List.for_all
              (fun input ->
                Oracle.agrees ~require_eof ~config:cfg g input
                  (Engine.run eng ~require_eof input))
              inputs)
  in
  [
    agree "engine = reference (no memo)" 250 Config.naive;
    agree "engine = reference (packrat hashtable)" 250 Config.packrat;
    agree "engine = reference (chunked+transient)" 250
      (Config.v ~memo:Config.Chunked ~honor_transient:true ());
    agree "engine = reference (fully optimized)" 250 Config.optimized;
    agree ~require_eof:false "engine = reference on prefixes (consumed offsets)"
      250 Config.optimized;
  ]

(* --- printer round-trip -------------------------------------------------------------- *)

let gen_printable_expr st = gen_expr ~refs:[ "Other" ] ~depth:3 st

let arb_expr =
  QCheck.make ~print:Pretty.expr_to_string gen_printable_expr

let printer_props =
  [
    QCheck.Test.make ~name:"pretty output reparses to an equal expression"
      ~count:500 arb_expr (fun e ->
        match Meta_parser.parse_expr (Pretty.expr_to_string e) with
        | Ok e' -> Expr.equal e e'
        | Error _ -> false);
  ]

(* --- module print/parse round-trip ------------------------------------------------------- *)

let gen_attrs st =
  Attr.v
    ~kind:(Gen.oneofl [ Attr.Plain; Attr.Generic; Attr.Text; Attr.Void ] st)
    ~visibility:(Gen.oneofl [ Attr.Public; Attr.Private ] st)
    ~memo:(Gen.oneofl [ Attr.Memo_auto; Attr.Memo_always; Attr.Memo_never ] st)
    ~inline:(Gen.oneofl [ Attr.Inline_auto; Attr.Inline_always; Attr.Inline_never ] st)
    ~with_location:(Gen.bool st) ()

let gen_module st =
  (* A base module plus a modifying module, exercising every item kind
     and dependency form the printer can emit. *)
  let base_items =
    List.init
      (1 + Gen.int_bound 3 st)
      (fun i ->
        Module_ast.define ~attrs:(gen_attrs st)
          (Printf.sprintf "P%d" i)
          (Expr.alt_labeled
             [
               { Expr.label = Some "A"; body = gen_expr ~refs:[ "P0" ] ~depth:2 st };
               { Expr.label = Some "B"; body = gen_expr ~refs:[] ~depth:2 st };
             ]))
  in
  let base = Module_ast.v ~params:[ "S" ] "gen.Base" base_items in
  let ext_items =
    [
      Module_ast.override "P0" (gen_expr ~refs:[] ~depth:2 st);
      Module_ast.add ~placement:(Gen.oneofl
        [ Module_ast.Append; Module_ast.Prepend;
          Module_ast.Before "A"; Module_ast.After "B" ] st)
        "P0"
        [ { Expr.label = Some "C"; body = gen_expr ~refs:[] ~depth:2 st } ];
      Module_ast.remove "P0" [ "A" ];
      Module_ast.define ~attrs:(gen_attrs st) "Q" (gen_expr ~refs:[] ~depth:2 st);
    ]
  in
  let ext =
    Module_ast.v
      ~deps:
        [
          Module_ast.modify ~alias:"Base" ~args:[ "X" ] "gen.Base";
          Module_ast.import ~args:[] "gen.Other";
        ]
      ~params:[ "X" ] "gen.Ext" ext_items
  in
  [ base; ext ]

let arb_modules =
  QCheck.make
    ~print:(fun ms ->
      String.concat "\n" (List.map Meta_print.module_to_string ms))
    gen_module

let module_props =
  [
    QCheck.Test.make ~name:"module printer output reparses stably" ~count:300
      arb_modules (fun ms ->
        let printed =
          String.concat "\n" (List.map Meta_print.module_to_string ms)
        in
        match Meta_parser.parse_modules_string printed with
        | Error _ -> false
        | Ok ms' ->
            String.equal printed
              (String.concat "\n" (List.map Meta_print.module_to_string ms')));
  ]

(* --- meta-parser robustness --------------------------------------------------------------- *)

let fuzz_props =
  [
    QCheck.Test.make ~name:"meta parser never raises on random bytes"
      ~count:1000
      QCheck.(string_of_size (Gen.int_bound 60))
      (fun junk ->
        match Meta_parser.parse_modules_string junk with
        | Ok _ | Error _ -> true);
    QCheck.Test.make ~name:"meta parser never raises on mangled grammars"
      ~count:300
      QCheck.(pair (int_bound 200) (int_bound 255))
      (fun (pos, byte) ->
        (* Take a real grammar and corrupt one byte. *)
        let text = List.hd Grammars.Calc.texts in
        let pos = pos mod String.length text in
        let mangled =
          String.mapi
            (fun i c -> if i = pos then Char.chr byte else c)
            text
        in
        match Meta_parser.parse_modules_string mangled with
        | Ok _ | Error _ -> true);
  ]

(* --- engine robustness ---------------------------------------------------------------- *)

let engine_fuzz_props =
  let minic = lazy (Engine.prepare_exn (Pipeline.optimize (Grammars.Minic.grammar ()))) in
  [
    QCheck.Test.make ~name:"minic engine never raises on random bytes"
      ~count:500
      QCheck.(string_of_size (Gen.int_bound 120))
      (fun junk ->
        match Engine.parse (Lazy.force minic) junk with
        | Ok _ | Error _ -> true);
    QCheck.Test.make
      ~name:"minic engine never raises on corrupted real programs" ~count:200
      QCheck.(pair (int_bound 5000) (int_bound 255))
      (fun (pos, byte) ->
        let src = Grammars.Corpus.minic (Rng.create 17) ~functions:3 in
        let pos = pos mod String.length src in
        let bad =
          String.mapi (fun i c -> if i = pos then Char.chr byte else c) src
        in
        match Engine.parse (Lazy.force minic) bad with
        | Ok _ | Error _ -> true);
  ]

(* --- resource governor -------------------------------------------------------------- *)

(* The governor's contract, in property form: under finite limits the
   engine (a) always returns a result — no exception escapes — and
   (b) when no budget tripped, returns the reference interpreter's
   result. *)

let governor_props =
  let calc = lazy (Pipeline.optimize (Grammars.Calc.grammar ())) in
  let calc_eng cfg limits =
    lazy
      (Engine.prepare_exn
         ~config:(Config.with_limits limits cfg)
         (Lazy.force calc))
  in
  let hardened = calc_eng Config.optimized Limits.hardened in
  let gen_adversarial st =
    let scale = 1 + Gen.int_bound 4000 st in
    let shapes = Grammars.Corpus.adversarial ~scale in
    List.nth shapes (Gen.int_bound (List.length shapes - 1) st)
  in
  let arb_adversarial =
    QCheck.make
      ~print:(fun (name, input) ->
        Printf.sprintf "%s (%d bytes)" name (String.length input))
      gen_adversarial
  in
  [
    (* (a)+(b) on the designed hostile inputs: a raise fails the test. *)
    QCheck.Test.make
      ~name:"hardened calc: agrees with the reference and never raises \
             (adversarial)"
      ~count:600 arb_adversarial (fun (_, input) ->
        let eng = Lazy.force hardened in
        Oracle.agrees ~config:(Engine.config eng) (Lazy.force calc) input
          (Engine.run eng input));
    (* Same, on random grammars with budgets small enough that most runs
       trip: a run that does not trip must still be the reference's. *)
    QCheck.Test.make
      ~name:"random tiny budgets: untripped runs agree with the reference"
      ~count:400
      (QCheck.pair arb_case
         (QCheck.make
            ~print:(fun (f, d) -> Printf.sprintf "fuel=%d depth=%d" f d)
            (Gen.pair (Gen.map (( + ) 1) (Gen.int_bound 300))
               (Gen.map (( + ) 1) (Gen.int_bound 24)))))
      (fun ((g, inputs), (fuel, max_depth)) ->
        let config = Config.with_limits (Limits.v ~fuel ~max_depth ()) Config.optimized in
        match Engine.prepare ~config g with
        | Ok eng ->
            List.for_all
              (fun input ->
                Oracle.agrees ~config g input (Engine.run eng input))
              inputs
        | Error _ -> Oracle.refused g);
    (* Memo-budget exhaustion degrades instead of failing: a tiny memo
       budget must not change any observable outcome, and the degraded
       run is still the reference's. *)
    QCheck.Test.make ~name:"memo degradation changes nothing observable"
      ~count:300
      (QCheck.pair arb_case (QCheck.make (Gen.int_bound 2048)))
      (fun ((g, inputs), budget) ->
        let limits = Limits.v ~max_memo_bytes:budget () in
        let degraded cfg = Config.with_limits limits cfg in
        List.for_all
          (fun cfg ->
            match
              (Engine.prepare ~config:cfg g,
               Engine.prepare ~config:(degraded cfg) g)
            with
            | Ok full, Ok capped ->
                List.for_all
                  (fun input ->
                    full_equal (observe_full full input)
                      (observe_full capped input)
                    && Oracle.agrees ~config:cfg g input (Engine.run capped input))
                  inputs
            | Error _, Error _ -> true
            | _ -> false)
          [
            Config.optimized;
            Config.packrat;
            Config.v ~memo:Config.Chunked ~honor_transient:true ();
          ]);
    (* The unlimited default really is governance-free at the API level:
       same observations as a finite-but-huge budget. *)
    QCheck.Test.make ~name:"huge finite budgets behave like unlimited"
      ~count:200 arb_case (fun (g, inputs) ->
        let roomy =
          Limits.v ~fuel:100_000_000 ~max_depth:100_000
            ~max_memo_bytes:(1 lsl 40) ~max_input_bytes:(1 lsl 30) ()
        in
        List.for_all
          (fun cfg ->
            match
              (Engine.prepare ~config:cfg g,
               Engine.prepare ~config:(Config.with_limits roomy cfg) g)
            with
            | Ok free, Ok governed ->
                List.for_all
                  (fun input ->
                    full_equal (observe_full free input)
                      (observe_full governed input)
                    && Oracle.agrees ~config:cfg g input (Engine.run governed input)
                    &&
                    (* a deadline that never expires: the same parse,
                       every Stats counter included *)
                    let bare = Engine.run free input in
                    let timed = Engine.run free ~expired:(fun () -> false) input in
                    full_equal
                      (full_of_result bare.Engine.result)
                      (full_of_result timed.Engine.result)
                    && Stats.fields bare.Engine.stats
                       = Stats.fields timed.Engine.stats
                    && Oracle.agrees ~config:cfg g input timed)
                  inputs
            | Error _, Error _ -> true
            | _ -> false)
          [ Config.optimized; Config.packrat ]);
  ]

(* --- input representations ------------------------------------------------------------ *)

(* The zero-copy input layer: the same document parsed through a
   string-backed and a Bigarray-backed [Input.t] must be byte-identical
   in every observable — value, consumed offset, error position,
   expected set, error kind and every [Stats] counter — under every
   memo strategy, governed and ungoverned — and the Bigarray parse is
   the reference interpreter's. This is the invariant that lets
   [Source.map_file]/[rml parse --mmap] claim "same parse, no copy". *)

let big_of_string s =
  let b =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s)
  in
  String.iteri (Bigarray.Array1.set b) s;
  Input.of_bigstring b

let rep_observe eng input =
  let o = Engine.run_input eng input in
  let result =
    match o.Engine.result with
    | Ok v -> Ok v
    | Error e ->
        Error
          ( e.Parse_error.position,
            e.Parse_error.expected,
            e.Parse_error.consumed,
            e.Parse_error.kind )
  in
  (result, o.Engine.consumed, Stats.fields o.Engine.stats)

let rep_equal (ra, ca, sa) (rb, cb, sb) =
  ca = cb && sa = sb
  &&
  match (ra, rb) with
  | Ok va, Ok vb -> Value.equal va vb
  | Error ea, Error eb -> ea = eb
  | Ok _, Error _ | Error _, Ok _ -> false

let input_rep_props =
  let governed cfg =
    Config.with_limits (Limits.v ~fuel:200_000 ~max_depth:10_000 ()) cfg
  in
  List.map
    (fun (tag, cfg) ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "string = bigarray: values, errors, stats (%s)" tag)
        ~count:200 arb_case
        (fun (g, inputs) ->
          match prepare_with cfg g with
          | Error _ -> true
          | Ok eng ->
              List.for_all
                (fun text ->
                  rep_equal
                    (rep_observe eng (Input.of_string text))
                    (rep_observe eng (big_of_string text))
                  && Oracle.agrees ~config:cfg g text
                       (Engine.run_input eng (big_of_string text)))
                inputs))
    [
      ("optimized", Config.optimized);
      ("no memo", Config.naive);
      ("packrat", Config.packrat);
      ("optimized governed", governed Config.optimized);
      ("packrat governed", governed Config.packrat);
    ]
  @ [
      QCheck.Test.make
        ~name:"string = bigarray on prefixes (require_eof:false)" ~count:150
        arb_case
        (fun (g, inputs) ->
          match prepare_with Config.optimized g with
          | Ok eng ->
              List.for_all
                (fun text ->
                  let a =
                    Engine.run_input eng ~require_eof:false
                      (Input.of_string text)
                  in
                  let b =
                    Engine.run_input eng ~require_eof:false (big_of_string text)
                  in
                  a.Engine.consumed = b.Engine.consumed
                  && Result.is_ok a.Engine.result = Result.is_ok b.Engine.result
                  && Stats.fields a.Engine.stats = Stats.fields b.Engine.stats
                  && Oracle.agrees ~require_eof:false ~config:Config.optimized g
                       text b)
                inputs
          | Error _ -> Oracle.refused g);
    ]

(* --- recognizer (voidified) equivalence ----------------------------------------------- *)

(* The contract behind [rml parse --recognize] and the batch ladder's
   recognizer rung, in property form: erasing every production kind to
   Void changes no verdict, no consumed-byte count, no error position
   and no expected set — kinds only shape semantic values. On the memo
   side, the per-chunk [Limits.chunk_cost] can only shrink (no value
   slots survive erasure) while chunk coverage can only grow: lean
   calls to value-carrying slots read the table without filling it,
   but every voidified slot is value-free and gets the whole protocol.
   So the total charge is compared as cheaper-per-chunk over a
   superset of positions — and whenever coverage does not grow, the
   total must shrink outright. The voidified run is also checked against
   the reference interpreter on the voidified grammar. Checked with and
   without dispatch, governed and ungoverned: 4 configurations x 150
   cases = 600 random grammars. *)

let chunked = Config.v ~memo:Config.Chunked ~honor_transient:true ()

let voidify g =
  match Batch.recognizer_erase g with
  | Some g' -> g'
  | None -> QCheck.Test.fail_report "erasure broke a well-formed grammar"

let recognizer_props =
  let chunk_charge eng (st : Stats.t) =
    st.Stats.chunks_allocated
    * Limits.chunk_cost
        ~value_slots:(Engine.memo_value_slots eng)
        (Engine.memo_slots eng)
  in
  let obs (o : Engine.outcome) =
    match o.Engine.result with
    | Ok _ -> (true, o.Engine.consumed, 0, [])
    | Error e ->
        ( false,
          o.Engine.consumed,
          e.Parse_error.position,
          List.sort_uniq compare e.Parse_error.expected )
  in
  let governed cfg =
    Config.with_limits (Limits.v ~fuel:200_000 ~max_depth:10_000 ()) cfg
  in
  List.map
    (fun (tag, cfg) ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf
             "voidified = original: verdicts, consumed, expected; memo \
              charge <= (%s)"
             tag)
        ~count:150 arb_case
        (fun (g, inputs) ->
          let void = voidify g in
          match (prepare_with cfg g, prepare_with cfg void) with
          | Ok orig, Ok recog ->
              Engine.memo_value_slots recog = 0
              && Limits.chunk_cost
                   ~value_slots:(Engine.memo_value_slots recog)
                   (Engine.memo_slots recog)
                 <= Limits.chunk_cost
                      ~value_slots:(Engine.memo_value_slots orig)
                      (Engine.memo_slots orig)
              && List.for_all
                   (fun input ->
                     let a = Engine.run orig input
                     and b = Engine.run recog input in
                     let ca = a.Engine.stats.Stats.chunks_allocated
                     and cb = b.Engine.stats.Stats.chunks_allocated in
                     if obs a <> obs b then
                       QCheck.Test.fail_reportf "observation differs on %S"
                         input
                     else if cb < ca then
                       QCheck.Test.fail_reportf
                         "voidified chunk coverage shrank on %S: %d < %d"
                         input cb ca
                     else if
                       cb = ca
                       && chunk_charge recog b.Engine.stats
                          > chunk_charge orig a.Engine.stats
                     then
                       QCheck.Test.fail_reportf
                         "memo charge grew at equal coverage on %S: %d > %d"
                         input
                         (chunk_charge recog b.Engine.stats)
                         (chunk_charge orig a.Engine.stats)
                     else Oracle.agrees ~config:cfg void input b)
                   inputs
          | Error _, Error _ -> true
          | _ -> false))
    [
      ("optimized", Config.optimized);
      ("chunked", chunked);
      ("optimized governed", governed Config.optimized);
      ("chunked governed", governed chunked);
    ]

(* --- charset algebra -------------------------------------------------------------------- *)

let arb_charset =
  QCheck.make
    ~print:(fun s -> Charset.to_string s)
    (fun st ->
      let s = ref Charset.empty in
      for _ = 0 to Gen.int_bound 6 st do
        let a = Gen.char st and b = Gen.char st in
        s := Charset.union !s (Charset.range (min a b) (max a b))
      done;
      !s)

let charset_props =
  [
    QCheck.Test.make ~name:"to_ranges/of_ranges round-trip" ~count:500
      arb_charset (fun s -> Charset.equal s (Charset.of_ranges (Charset.to_ranges s)));
    QCheck.Test.make ~name:"printer output is lossless via meta parser"
      ~count:300 arb_charset (fun s ->
        match Meta_parser.parse_expr (Charset.to_string s) with
        | Ok { Expr.it = Expr.Cls s'; _ } -> Charset.equal s s'
        | Ok { Expr.it = Expr.Any; _ } -> Charset.equal s Charset.full
        | Ok { Expr.it = Expr.Chr c; _ } -> Charset.equal s (Charset.singleton c)
        | _ -> false);
    QCheck.Test.make ~name:"de morgan" ~count:300
      (QCheck.pair arb_charset arb_charset) (fun (a, b) ->
        Charset.equal
          (Charset.complement (Charset.union a b))
          (Charset.inter (Charset.complement a) (Charset.complement b)));
    QCheck.Test.make ~name:"cardinal of disjoint union adds" ~count:300
      (QCheck.pair arb_charset arb_charset) (fun (a, b) ->
        let b = Charset.diff b a in
        Charset.cardinal (Charset.union a b)
        = Charset.cardinal a + Charset.cardinal b);
  ]

(* --- observability ---------------------------------------------------------- *)

let observed base =
  Config.with_observe (Observe.all ~ring_bytes:(1 lsl 20) ()) base

let observe_props =
  [
    QCheck.Test.make
      ~name:"profiler invocation sum equals Stats.invocations" ~count:200
      arb_case
      (fun (g, inputs) ->
        List.for_all
          (fun base ->
            match Engine.prepare ~config:(observed base) g with
            | Error _ -> true
            | Ok eng -> (
                let total =
                  List.fold_left
                    (fun acc input ->
                      acc
                      + (Engine.run eng input).Engine.stats.Stats.invocations)
                    0 inputs
                in
                match Engine.observation eng with
                | None -> false
                | Some o -> (
                    match Observe.profile o with
                    | None -> false
                    | Some p -> Profile.invocation_sum p = total)))
          [ Config.optimized; Config.packrat ]);
    QCheck.Test.make
      ~name:"observed runs agree with the reference and replay identically"
      ~count:150 arb_case
      (fun (g, inputs) ->
        List.for_all
          (fun base ->
            let config = observed base in
            let session () =
              match Engine.prepare ~config g with
              | Error _ -> None
              | Ok eng ->
                  let agree =
                    List.for_all
                      (fun input ->
                        Oracle.agrees ~config g input (Engine.run eng input))
                      inputs
                  in
                  Option.map
                    (fun o ->
                      ( agree,
                        Observe.events o,
                        Observe.coverage_summary o,
                        Observe.unexercised o ))
                    (Engine.observation eng)
            in
            match (session (), session ()) with
            | Some (agree, ev, cov, dead), Some (_, ev', cov', dead') ->
                agree && ev = ev' && cov = cov' && dead = dead'
            | None, None -> Oracle.refused g
            | _ -> false)
          [ Config.optimized; Config.packrat ]);
  ]

(* --- revisit analysis ------------------------------------------------------------------ *)

(* The one-shot layout drops only memo slots no run could hit: a
   store-less run and a run on a fresh store (which keeps every slot)
   perform exactly the same invocations, hits, backtracks and fuel, and
   report the same results — the one-shot run just stores no more. *)
(* Revisit-prone grammars: the same subexpression, references included,
   on two branches of one backtrack point — shared alternative prefixes,
   a failed alternative that reads past the winner, [x? x], and a
   repetition the continuation repeats. The plain generator's grammars
   hit a memo entry in well under 1% of runs; these do far more often,
   which is what gives a wrong demotion a chance to show. *)
let rec gen_revisiting ~refs ~depth st : Expr.t =
  if depth <= 0 then gen_leaf ~refs st
  else
    let sub () = gen_revisiting ~refs ~depth:(depth - 1) st in
    let shared () =
      let p = gen_expr ~refs ~depth:(depth - 1) st in
      match refs with
      | [] -> p
      | _ ->
          Expr.seq
            [ p; Expr.ref_ (List.nth refs (Gen.int_bound (List.length refs - 1) st)) ]
    in
    match Gen.int_bound 6 st with
    | 0 ->
        let p = shared () in
        Expr.alt [ Expr.seq [ p; sub () ]; Expr.seq [ p; sub () ] ]
    | 1 ->
        let p = shared () and q = shared () in
        Expr.seq
          [ Expr.alt [ Expr.seq [ p; q; sub () ]; p ]; q; sub () ]
    | 2 ->
        let x = gen_consuming ~refs ~depth:(depth - 1) st in
        Expr.seq [ Expr.opt x; x; sub () ]
    | 3 ->
        let x = gen_consuming ~refs ~depth:(depth - 1) st in
        Expr.seq [ Expr.star x; Expr.alt [ x; sub () ] ]
    | 4 -> Expr.seq [ sub (); sub () ]
    | 5 -> Expr.alt [ sub (); sub () ]
    | _ -> gen_expr ~refs ~depth st

let gen_revisit_case st =
  let gen_grammar st =
    let n = 2 + Gen.int_bound 2 st in
    let name i = Printf.sprintf "P%d" i in
    Grammar.make_exn ~start:"P0"
      (List.init n (fun i ->
           let refs = List.init (n - i - 1) (fun j -> name (i + j + 1)) in
           Production.v
             ~attrs:(Attr.v ~kind:Attr.Generic ~visibility:Attr.Private ())
             (name i)
             (gen_revisiting ~refs ~depth:3 st)))
  in
  let rec retry k =
    let g = gen_grammar st in
    if Analysis.check (Analysis.analyze g) = [] then g
    else if k > 50 then Grammar.make_exn [ Production.v "P0" (Expr.chr 'a') ]
    else retry (k + 1)
  in
  let g = retry 0 in
  (g, List.init 8 (fun _ -> gen_input g st))

let arb_revisit_case = QCheck.make ~print:print_case gen_revisit_case

let revisit_props =
  let governed cfg =
    Config.with_limits
      (Limits.v ~fuel:1_000_000 ~max_depth:10_000 ~max_memo_bytes:(1 lsl 40) ())
      cfg
  in
  List.map
    (fun (tag, cfg) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "one-shot = fresh store, fewer stores (%s)" tag)
        ~count:1000 arb_revisit_case
        (fun (g, inputs) ->
          match prepare_with cfg g with
          | Error _ -> true
          | Ok eng ->
              List.for_all
                (fun text ->
                  let a = Engine.run eng text in
                  let b = Engine.run_store eng (Engine.new_store eng) text in
                  let sa = a.Engine.stats and sb = b.Engine.stats in
                  full_equal (full_of_result a.Engine.result)
                    (full_of_result b.Engine.result)
                  && a.Engine.consumed = b.Engine.consumed
                  && sa.Stats.invocations = sb.Stats.invocations
                  && sa.Stats.memo_hits = sb.Stats.memo_hits
                  && sa.Stats.fuel_used = sb.Stats.fuel_used
                  && sa.Stats.backtracks = sb.Stats.backtracks
                  && sa.Stats.memo_stores <= sb.Stats.memo_stores)
                inputs))
    [
      ("optimized", Config.optimized);
      ("governed", governed Config.optimized);
      ("dispatch off", { Config.optimized with Config.dispatch = false });
    ]

let () =
  let to_alco = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "props"
    [
      ("engine-equivalence", to_alco engine_props);
      ("reference-equivalence", to_alco reference_props);
      ("input-representation", to_alco input_rep_props);
      ("pass-equivalence", to_alco pass_props);
      ("registry-pass-equivalence", to_alco registry_pass_props);
      ("printer", to_alco printer_props);
      ("module-printer", to_alco module_props);
      ("fuzz", to_alco fuzz_props);
      ("engine-fuzz", to_alco engine_fuzz_props);
      ("governor", to_alco governor_props);
      ("recognizer-equivalence", to_alco recognizer_props);
      ("observability", to_alco observe_props);
      ("charset", to_alco charset_props);
      ("revisit-analysis", to_alco revisit_props);
    ]
