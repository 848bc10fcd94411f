(* Engine tests. Most behaviours are checked under all three standard
   configurations (naive, packrat, optimized) — any divergence between
   them is itself a bug, since the optimizations must be observationally
   transparent. *)

open Rats

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let value_eq = Alcotest.testable (fun ppf v -> Value.pp ppf v) Value.equal

let configs =
  [ ("naive", Config.naive); ("packrat", Config.packrat);
    ("optimized", Config.optimized) ]

(* Run [f] under every configuration, labelling failures. *)
let each_config g f =
  List.iter
    (fun (label, cfg) ->
      match Engine.prepare ~config:cfg g with
      | Ok eng -> f label eng
      | Error (d :: _) ->
          Alcotest.failf "[%s] prepare: %s" label (Diagnostic.to_string d)
      | Error [] -> assert false)
    configs

let parse_ok label eng input =
  match Engine.parse eng input with
  | Ok v -> v
  | Error e ->
      Alcotest.failf "[%s] %S: %s" label input (Parse_error.message e)

let expect_value g input expected =
  each_config g (fun label eng ->
      check value_eq
        (Printf.sprintf "[%s] %S" label input)
        expected (parse_ok label eng input))

let expect_accepts g input yes =
  each_config g (fun label eng ->
      check Alcotest.bool
        (Printf.sprintf "[%s] %S" label input)
        yes (Engine.accepts eng input))

let b = Grammar.make_exn

(* --- matching and values ------------------------------------------------------ *)

let matching_tests =
  let open Builder in
  [
    test "literals match and yield no value" (fun () ->
        let g = b [ prod "S" (s "ab" @: c 'c') ] in
        expect_value g "abc" Value.Unit;
        expect_accepts g "abd" false;
        expect_accepts g "ab" false);
    test "classes yield the byte" (fun () ->
        let g = b [ prod "S" (r '0' '9') ] in
        expect_value g "7" (Value.Chr '7'));
    test "any yields the byte and respects eof" (fun () ->
        let g = b [ prod "S" any ] in
        expect_value g "x" (Value.Chr 'x');
        expect_accepts g "" false);
    test "empty matches the empty input" (fun () ->
        let g = b [ prod "S" eps ] in
        expect_value g "" Value.Unit);
    test "fail never matches" (fun () ->
        let g = b [ prod "S" (fail "boom" <|> c 'a') ] in
        expect_accepts g "a" true;
        expect_accepts g "b" false);
    test "sequence packs labeled components" (fun () ->
        let g = b [ prod "S" (("x" |: r 'a' 'z') @: c '-' @: ("y" |: r 'a' 'z')) ] in
        expect_value g "p-q"
          (Value.seq [ (Some "x", Value.Chr 'p'); (Some "y", Value.Chr 'q') ]));
    test "choice is ordered" (fun () ->
        let g = b [ prod "S" ((tok (s "aa") <|> tok (c 'a')) @: star any) ] in
        each_config g (fun label eng ->
            match parse_ok label eng "aa" with
            | Value.Node { children = (_, Value.Str first) :: _; _ } ->
                check Alcotest.string label "aa" first
            | Value.Str first -> check Alcotest.string label "aa" first
            | v -> Alcotest.failf "[%s] unexpected %s" label (Value.to_string v)));
    test "star collects values" (fun () ->
        let g = b [ prod "S" (star (r '0' '9')) ] in
        expect_value g "12" (Value.List [ Value.Chr '1'; Value.Chr '2' ]);
        expect_value g "" (Value.List []));
    test "plus needs one" (fun () ->
        let g = b [ prod "S" (plus (r '0' '9')) ] in
        expect_accepts g "" false;
        expect_value g "4" (Value.List [ Value.Chr '4' ]));
    test "opt yields unit when absent" (fun () ->
        let g = b [ prod "S" (opt (c 'x') @: c 'y') ] in
        expect_value g "y" Value.Unit;
        expect_value g "xy" Value.Unit);
    test "and-predicate consumes nothing" (fun () ->
        let g = b [ prod "S" (amp (c 'a') @: tok (star any)) ] in
        expect_value g "ab" (Value.Str "ab");
        expect_accepts g "ba" false);
    test "not-predicate consumes nothing" (fun () ->
        let g = b [ prod "S" (bang (c 'q') @: any) ] in
        expect_accepts g "x" true;
        expect_accepts g "q" false);
    test "token captures matched text" (fun () ->
        let g = b [ prod "S" (tok (plus (r 'a' 'z')) @: c '!') ] in
        expect_value g "hey!" (Value.Str "hey"));
    test "node wraps components" (fun () ->
        let g =
          b [ prod "S" (node "Pair" (("l" |: any) @: c ',' @: ("r" |: any))) ]
        in
        expect_value g "a,b"
          (Value.node "Pair" [ (Some "l", Value.Chr 'a'); (Some "r", Value.Chr 'b') ]));
    test "node records its span" (fun () ->
        let g = b [ prod "S" (c ' ' @: node "N" (s "ab")) ] in
        let eng = Engine.prepare_exn g in
        (match Engine.parse eng " ab" with
        | Ok (Value.Node { span; _ }) ->
            check Alcotest.int "start" 1 (Span.start span);
            check Alcotest.int "stop" 3 (Span.stop span)
        | Ok v -> Alcotest.failf "unexpected %s" (Value.to_string v)
        | Error _ -> Alcotest.fail "parse failed"));
    test "drop discards the value" (fun () ->
        let g = b [ prod "S" (void (r '0' '9') @: r 'a' 'z') ] in
        expect_value g "1x" (Value.Chr 'x'));
    test "standalone bind labels the value" (fun () ->
        let g = b [ prod "S" ("n" |: r '0' '9') ] in
        expect_value g "3" (Value.seq [ (Some "n", Value.Chr '3') ]));
    test "production kinds shape the value" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S"
                (e "G" @: e "T" @: e "V");
              prod ~kind:Attr.Generic "G" (r 'a' 'z');
              prod ~kind:Attr.Text "T" (plus (r '0' '9'));
              prod ~kind:Attr.Void "V" (r 'a' 'z');
            ]
        in
        expect_value g "x42z"
          (Value.seq
             [
               (None, Value.node "G" [ (None, Value.Chr 'x') ]);
               (None, Value.Str "42");
             ]));
    test "grammar recursion" (fun () ->
        let g =
          b [ prod "S" (c '(' @: opt (e "S") @: c ')') ]
        in
        expect_accepts g "((()))" true;
        expect_accepts g "(()" false);
  ]

(* --- entry points and errors ---------------------------------------------------- *)

let entry_tests =
  let open Builder in
  [
    test "require_eof off allows trailing input" (fun () ->
        let g = b [ prod "S" (c 'a') ] in
        let eng = Engine.prepare_exn g in
        check Alcotest.bool "prefix ok" true
          (Result.is_ok (Engine.run eng ~require_eof:false "abc").Engine.result);
        check Alcotest.bool "eof enforced" false
          (Result.is_ok (Engine.run eng "abc").Engine.result));
    test "consumed reports the prefix length" (fun () ->
        let g = b [ prod "S" (plus (r 'a' 'z')) ] in
        let eng = Engine.prepare_exn g in
        let out = Engine.run eng ~require_eof:false "abc123" in
        check Alcotest.int "consumed" 3 out.Engine.consumed;
        check Alcotest.bool "ok" true (Result.is_ok out.Engine.result);
        let out = Engine.run eng "123" in
        check Alcotest.int "failed" (-1) out.Engine.consumed);
    test "start override" (fun () ->
        let g =
          Grammar.make_exn ~start:"A" [ prod "A" (c 'a'); prod "B" (c 'b') ]
        in
        let eng = Engine.prepare_exn g in
        check Alcotest.bool "default" true (Engine.accepts eng "a");
        check Alcotest.bool "override" true (Engine.accepts eng ~start:"B" "b"));
    test "unknown start raises" (fun () ->
        let g = b [ prod "S" (c 'a') ] in
        let eng = Engine.prepare_exn g in
        match Engine.parse eng ~start:"Zed" "a" with
        | exception Diagnostic.Fail _ -> ()
        | _ -> Alcotest.fail "expected failure");
    test "farthest failure position" (fun () ->
        let g = b [ prod "S" (s "ab" @: s "cd" <|> s "abce") ] in
        each_config g (fun label eng ->
            match Engine.parse eng "abcx" with
            | Error e ->
                check Alcotest.int label 3 e.Parse_error.position
            | Ok _ -> Alcotest.failf "[%s] unexpected success" label));
    test "expected set mentions candidates" (fun () ->
        let g = b [ prod "S" (c 'a' <|> c 'b') ] in
        let eng = Engine.prepare_exn ~config:Config.packrat g in
        match Engine.parse eng "z" with
        | Error e ->
            let msg = Parse_error.message e in
            check Alcotest.bool "a" true
              (String.length msg > 0 && e.Parse_error.expected <> [])
        | Ok _ -> Alcotest.fail "expected failure");
    test "error on trailing input mentions end of input" (fun () ->
        let g = b [ prod "S" (c 'a') ] in
        let eng = Engine.prepare_exn g in
        match Engine.parse eng "ab" with
        | Error e ->
            check Alcotest.bool "eof" true
              (List.mem "end of input" e.Parse_error.expected)
        | Ok _ -> Alcotest.fail "expected failure");
    test "left recursion rejected at prepare" (fun () ->
        let g = b [ prod "E" (e "E" @: c '+' <|> c 'n') ] in
        match Engine.prepare g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
    test "dangling reference rejected at prepare" (fun () ->
        let g = b [ prod "S" (e "Ghost") ] in
        match Engine.prepare g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
    test "vacuous repetition rejected at prepare" (fun () ->
        let g = b [ prod "S" (star (star (c 'x'))) ] in
        match Engine.prepare g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
  ]

(* --- memoization ----------------------------------------------------------------- *)

(* A grammar designed to re-invoke [Tail] at the same position through
   backtracking: S = Tail 'x' / Tail 'y' / Tail. *)
let memo_grammar =
  let open Builder in
  Grammar.make_exn ~start:"S"
    [
      prod "S" (e "Tail" @: c 'x' <|> e "Tail" @: c 'y' <|> e "Tail");
      prod "Tail" (plus (r 'a' 'z'));
    ]

let memo_tests =
  [
    test "packrat hits where naive re-parses" (fun () ->
        let run cfg =
          let eng = Engine.prepare_exn ~config:cfg memo_grammar in
          (Engine.run eng "abcdef").Engine.stats
        in
        let naive = run Config.naive in
        let packrat = run Config.packrat in
        check Alcotest.int "no hits when naive" 0 naive.Stats.memo_hits;
        check Alcotest.bool "packrat hits" true (packrat.Stats.memo_hits >= 2);
        (* Tail is evaluated three times at position 0 by the naive
           engine but only once under packrat (plus two hits). *)
        check Alcotest.bool "fewer misses than naive evaluations" true
          (packrat.Stats.memo_misses < naive.Stats.invocations));
    test "chunked and hashtable agree on hits" (fun () ->
        let run memo =
          let eng =
            Engine.prepare_exn ~config:(Config.v ~memo ()) memo_grammar
          in
          (Engine.run eng "abcdef").Engine.stats
        in
        let h = run Config.Hashtable and c = run Config.Chunked in
        check Alcotest.int "hits" h.Stats.memo_hits c.Stats.memo_hits;
        check Alcotest.bool "chunks allocated" true (c.Stats.chunks_allocated > 0));
    test "memo slots shrink when transients are honored" (fun () ->
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "A" @: e "B");
              prod ~memo:Attr.Memo_never "A" (c 'a');
              prod "B" (c 'b');
            ]
        in
        let plain = Engine.prepare_exn ~config:(Config.v ~memo:Config.Chunked ()) g in
        let lean =
          Engine.prepare_exn
            ~config:(Config.v ~memo:Config.Chunked ~honor_transient:true ())
            g
        in
        check Alcotest.int "all slots" 3 (Engine.memo_slots plain);
        check Alcotest.int "fewer slots" 2 (Engine.memo_slots lean));
    test "failures are memoized too" (fun () ->
        let eng = Engine.prepare_exn ~config:Config.packrat memo_grammar in
        let stats = (Engine.run eng "abc!").Engine.stats in
        (* Tail fails at '!' once; S's alternatives each hit the memo. *)
        check Alcotest.bool "hits" true (stats.Stats.memo_hits >= 1));
    test "value-free memo hits restore Unit, never the vals row" (fun () ->
        (* The vmap contract, pinned end to end: a full-mode memo hit on
           a production whose slot is value-free (vslot = -1) must
           restore [Value.Unit] without touching the arena's vals row.
           T (Text, vslot 0) poisons the shared chunk at position 0 with
           its captured string before B (Void, vslot -1) stores and is
           then hit there — a hit that wrongly indexed the vals row
           would resurface T's "12" instead of Unit and change the
           parse value. Two inputs through the same engine cover both
           arena paths: the first run builds fresh scratch, the second
           reuses the parked pool (recycled chunks, values released). *)
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S"
                (("a" |: e "T") @: c 'x'
                <|> ("b" |: e "B") @: c 'y'
                <|> ("c" |: e "B") @: c ';');
              prod ~kind:Attr.Text ~memo:Attr.Memo_always "T"
                (plus (r '0' '9'));
              prod ~kind:Attr.Void ~memo:Attr.Memo_always "B"
                (plus (r '0' '9'));
            ]
        in
        let oracle = Engine.prepare_exn ~config:Config.naive g in
        List.iter
          (fun (label, cfg) ->
            let eng = Engine.prepare_exn ~config:cfg g in
            List.iter
              (fun input ->
                let expected = parse_ok "naive" oracle input in
                let out = Engine.run eng input in
                (match out.Engine.result with
                | Ok v ->
                    check value_eq
                      (Printf.sprintf "[%s] %S" label input)
                      expected v
                | Error e ->
                    Alcotest.failf "[%s] %S: %s" label input
                      (Parse_error.message e));
                check Alcotest.bool
                  (Printf.sprintf "[%s] %S hit the memo" label input)
                  true
                  (out.Engine.stats.Stats.memo_hits >= 1))
              [ "12;"; "345;" ])
          [
            ("optimized", Config.optimized);
            ("chunked full", Config.v ~memo:Config.Chunked ());
          ]);
    test "dispatch prunes doomed alternatives" (fun () ->
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (s "ax" <|> s "bx" <|> s "cx") ]
        in
        let no_dispatch = Engine.prepare_exn ~config:Config.packrat g in
        let dispatch =
          Engine.prepare_exn ~config:(Config.v ~dispatch:true ()) g
        in
        let b1 = (Engine.run no_dispatch "cx").Engine.stats.Stats.backtracks in
        let b2 = (Engine.run dispatch "cx").Engine.stats.Stats.backtracks in
        check Alcotest.int "no dispatch backtracks" 2 b1;
        check Alcotest.int "dispatch skips" 0 b2);
  ]

(* --- stateful parsing ---------------------------------------------------------------- *)

let typedef_grammar =
  (* A miniature of the C typedef problem:
     S    = Def Use
     Def  = "def " %record(T, Word) ";"
     Use  = %member(T, Word) ";"   (only defined words can be used)  *)
  let open Builder in
  Grammar.make_exn ~start:"S"
    [
      prod "S" (e "Def" @: e "Use");
      prod "Def" (s "def " @: record "T" (e "Word") @: c ';');
      prod "Use" (member "T" (e "Word") @: c ';');
      prod ~kind:Attr.Text "Word" (plus (r 'a' 'z'));
    ]

let state_tests =
  [
    test "recorded names become usable" (fun () ->
        expect_accepts typedef_grammar "def foo;foo;" true;
        expect_accepts typedef_grammar "def foo;bar;" false);
    test "absent requires non-membership" (fun () ->
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "Def" @: absent "T" (e "Word") @: c ';');
              prod "Def" (s "def " @: record "T" (e "Word") @: c ';');
              prod ~kind:Attr.Text "Word" (plus (r 'a' 'z'));
            ]
        in
        expect_accepts g "def foo;bar;" true;
        expect_accepts g "def foo;foo;" false);
    test "state rolls back on backtracking" (fun () ->
        (* First alternative records then fails; the record must not leak
           into the second alternative. *)
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S"
                (record "T" (e "Word") @: c '!'
                <|> e "Word" @: c ';' @: bang (member "T" (e "Word'")) @: e "Word'" @: c ';');
              prod ~kind:Attr.Text "Word" (plus (r 'a' 'z'));
              prod ~kind:Attr.Text "Word'" (plus (r 'a' 'z'));
            ]
        in
        (* "ab;ab;" — alternative 1 records "ab" then fails on '!'. If the
           rollback failed, !member would reject the second branch. *)
        expect_accepts g "ab;ab;" true);
    test "memoized stateful production replays after state change" (fun () ->
        (* S = A 'x' / A Use;  A = %record(T,'a').
           A runs at position 0 twice: once before the table rollback,
           once after. A stale memo hit would skip the re-record and Use
           would fail. *)
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "A" @: c 'x' <|> e "A" @: e "Use");
              prod "A" (record "T" (c 'a'));
              prod "Use" (member "T" (c 'a'));
            ]
        in
        expect_accepts g "aa" true);
    test "state snapshots are counted" (fun () ->
        (* Backtracking over a committed record restores the tables. *)
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (record "T" (c 'a') @: c '!' <|> c 'a' @: c 'b');
            ]
        in
        let eng = Engine.prepare_exn ~config:Config.packrat g in
        let stats = (Engine.run eng "ab").Engine.stats in
        check Alcotest.bool "snapshots" true (stats.Stats.state_snapshots >= 1));
    test "typedef behaviour survives every configuration" (fun () ->
        expect_accepts typedef_grammar "def abc;abc;" true);
  ]

(* --- pathological input --------------------------------------------------------------- *)

let path_tests =
  [
    test "packrat is immune to exponential backtracking" (fun () ->
        let g = Grammars.Path.grammar () in
        let eng = Engine.prepare_exn ~config:Config.packrat g in
        let input = Grammars.Corpus.pathological ~depth:60 in
        (* Would take astronomically long without memoization. *)
        check Alcotest.bool "accepts" true (Engine.accepts eng input));
    test "naive invocation count explodes, packrat's stays linear" (fun () ->
        let g = Grammars.Path.grammar () in
        let input = Grammars.Corpus.pathological ~depth:14 in
        let invs cfg =
          let eng = Engine.prepare_exn ~config:cfg g in
          (Engine.run eng input).Engine.stats.Stats.invocations
        in
        let naive = invs Config.naive and packrat = invs Config.packrat in
        check Alcotest.bool "exponential vs linear" true (naive > 20 * packrat));
  ]

(* --- resource limits ------------------------------------------------------------ *)

let calc_gram = lazy (Pipeline.optimize (Grammars.Calc.grammar ()))

let calc_eng cfg limits =
  Engine.prepare_exn ~config:(Config.with_limits limits cfg) (Lazy.force calc_gram)

let configs = [ ("optimized", Config.optimized); ("packrat", Config.packrat) ]

let expect_trip label eng input which =
  match Engine.parse eng input with
  | Ok _ -> Alcotest.failf "[%s] unexpectedly accepted" label
  | Error e -> (
      match Parse_error.exhausted_which e with
      | Some w ->
          check Alcotest.string label (Limits.which_name which)
            (Limits.which_name w)
      | None ->
          Alcotest.failf "[%s] plain parse failure, expected %s trip: %s" label
            (Limits.which_name which) (Parse_error.message e))

let limits_tests =
  [
    test "fuel exhaustion is a structured error" (fun () ->
        let input = "1+1+1+1+1+1+1+1+1+1" in
        List.iter
          (fun (label, cfg) ->
            expect_trip label (calc_eng cfg (Limits.v ~fuel:20 ())) input
              Limits.Fuel)
          configs);
    test "depth exhaustion is a structured error" (fun () ->
        let input = Grammars.Corpus.pathological ~depth:64 in
        List.iter
          (fun (label, cfg) ->
            expect_trip label (calc_eng cfg (Limits.v ~max_depth:16 ())) input
              Limits.Depth)
          configs);
    test "oversized input is rejected before parsing" (fun () ->
        List.iter
          (fun (label, cfg) ->
            let eng = calc_eng cfg (Limits.v ~max_input_bytes:4 ()) in
            expect_trip label eng "1+1+1" Limits.Input;
            check Alcotest.bool (label ^ " small ok") true
              (Engine.accepts eng "1+1"))
          configs);
    test "trip reports the farthest position and renders a message"
      (fun () ->
        let eng = calc_eng Config.optimized (Limits.v ~fuel:30 ()) in
        match Engine.parse eng "1+1+1+1+1+1+1+1+1+1" with
        | Ok _ -> Alcotest.fail "expected a trip"
        | Error e ->
            check Alcotest.bool "position advanced" true
              (e.Parse_error.position > 0);
            check Alcotest.bool "message mentions fuel" true
              (String.length (Parse_error.message e) > 0
              && Parse_error.exhausted_which e = Some Limits.Fuel));
    test "hardened preset changes nothing on well-behaved input" (fun () ->
        let input = "(1+2)*3 - 4/2" in
        List.iter
          (fun (_, cfg) ->
            let free = calc_eng cfg Limits.unlimited in
            let gov = calc_eng cfg Limits.hardened in
            check value_eq "same value"
              (Result.get_ok (Engine.parse free input))
              (Result.get_ok (Engine.parse gov input)))
          configs);
    test "an expired deadline trips after exactly one fuel slice" (fun () ->
        (* 40 KB of calc is well over one 65,536-invocation slice; an
           always-true predicate stops the run at the first boundary,
           and the trip is the last event the ring saw *)
        let input = "1" ^ String.concat "" (List.init 20_000 (fun _ -> "+1")) in
        let cfg =
          Config.with_observe
            {
              Observe.off with
              Observe.events = true;
              ring_bytes = 16 * Observe.event_bytes;
            }
            Config.optimized
        in
        let eng = Engine.prepare_exn ~config:cfg (Lazy.force calc_gram) in
        let o = Engine.run eng ~expired:(fun () -> true) input in
        (match o.Engine.result with
        | Error e ->
            check Alcotest.(option string) "which" (Some "deadline")
              (Option.map Limits.which_name (Parse_error.exhausted_which e))
        | Ok _ -> Alcotest.fail "expected a deadline trip");
        check Alcotest.int "fuel_used" 65_536 o.Engine.stats.Stats.fuel_used;
        match Engine.observation eng with
        | None -> Alcotest.fail "no observation sink"
        | Some obs -> (
            match List.rev (Observe.events obs) with
            | last :: _ ->
                check Alcotest.bool "last event is the trip" true
                  (last.Observe.kind = Observe.Govern_trip);
                let dump =
                  Format.asprintf "%a" (Observe.pp_events ?input:None ~last:1) obs
                in
                let needle = "govern-trip deadline" in
                let n = String.length needle in
                let rec found i =
                  i + n <= String.length dump
                  && (String.sub dump i n = needle || found (i + 1))
                in
                check Alcotest.bool "names the deadline" true (found 0)
            | [] -> Alcotest.fail "empty ring"));
    test "a deadline that never expires changes nothing" (fun () ->
        let input = "1" ^ String.concat "" (List.init 20_000 (fun _ -> "+1")) in
        List.iter
          (fun (label, cfg) ->
            let eng = calc_eng cfg (Limits.v ~fuel:10_000_000 ()) in
            let polls = ref 0 in
            let bare = Engine.run eng input in
            let timed =
              Engine.run eng
                ~expired:(fun () ->
                  incr polls;
                  false)
                input
            in
            check Alcotest.bool (label ^ ": polled between slices") true
              (!polls > 0);
            check value_eq (label ^ ": same value")
              (Result.get_ok bare.Engine.result)
              (Result.get_ok timed.Engine.result);
            check
              Alcotest.(list (pair string int))
              (label ^ ": same stats")
              (Stats.fields bare.Engine.stats)
              (Stats.fields timed.Engine.stats))
          configs);
    test "memo budget degrades instead of failing (all memo modes)"
      (fun () ->
        let input = "abcdef" in
        List.iter
          (fun (label, cfg) ->
            let full = Engine.prepare_exn ~config:cfg memo_grammar in
            let capped =
              Engine.prepare_exn
                ~config:(Config.with_limits (Limits.v ~max_memo_bytes:1 ()) cfg)
                memo_grammar
            in
            let of_run eng = Engine.run eng input in
            let a = of_run full and b = of_run capped in
            check Alcotest.bool (label ^ " same result") true
              (Result.is_ok a.Engine.result = Result.is_ok b.Engine.result);
            check Alcotest.int (label ^ " no stores under cap") 0
              b.Engine.stats.Stats.memo_stores;
            check Alcotest.bool (label ^ " degradations counted") true
              (b.Engine.stats.Stats.memo_degraded > 0))
          [
            ("hashtable", Config.packrat);
            ("chunked", Config.v ~memo:Config.Chunked ());
          ]);
    test "degraded run still memo-hits within the budget" (fun () ->
        (* Re-invokes T at every input position; a budget of two chunks
           leaves early positions memoized (serving hits) while later
           ones degrade. *)
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (star (e "I"));
              prod "I" (e "T" @: c 'x' <|> e "T");
              prod "T" (r 'a' 'z');
            ]
        in
        let chunked = Config.v ~memo:Config.Chunked () in
        let budget =
          2 * Limits.chunk_cost
                (Engine.memo_slots (Engine.prepare_exn ~config:chunked g))
        in
        let eng =
          Engine.prepare_exn
            ~config:(Config.with_limits (Limits.v ~max_memo_bytes:budget ()) chunked)
            g
        in
        let stats = (Engine.run eng "ababab").Engine.stats in
        check Alcotest.bool "hits" true (stats.Stats.memo_hits >= 1);
        check Alcotest.bool "degraded" true (stats.Stats.memo_degraded >= 1));
    test "parsing twice yields identical stats (state resets per parse)"
      (fun () ->
        (* Mutable per-parse accounting (memo bytes in particular) must
           start fresh on every run: under a tight budget, a leak from
           the first parse would degrade memoization — and so change the
           counters — on the second. *)
        let input = "(1+2)*(3+4)-5" in
        List.iter
          (fun (label, cfg) ->
            let eng =
              calc_eng cfg (Limits.v ~fuel:100_000 ~max_memo_bytes:512 ())
            in
            let snapshot () =
              let o = Engine.run eng input in
              let st = o.Engine.stats in
              ( Result.is_ok o.Engine.result,
                st.Stats.invocations,
                st.Stats.memo_hits,
                st.Stats.memo_misses,
                st.Stats.memo_stores,
                st.Stats.memo_degraded,
                st.Stats.fuel_used )
            in
            let a = snapshot () and b = snapshot () in
            (* the budget must bind, or a leak could not show *)
            let _, _, _, _, _, degraded, _ = a in
            check Alcotest.bool (label ^ ": budget binds") true (degraded > 0);
            if a <> b then Alcotest.failf "%s: second parse drifted" label)
          [
            ("optimized", Config.optimized);
            ("packrat", Config.packrat);
          ]);
  ]

(* --- character classes ------------------------------------------------------ *)

(* A class accepts a byte exactly when its charset contains it — at both
   ends of the byte range and under complement too — on every memo
   strategy, and so does the reference interpreter. *)
let charset_tests =
  let sets =
    [
      ("range", Charset.range 'a' 'f');
      ("union", Charset.union (Charset.range '0' '9') (Charset.singleton '_'));
      ( "complement",
        Charset.complement
          (Charset.union (Charset.singleton '\n') (Charset.range 'x' 'z')) );
      ("edges", Charset.union (Charset.singleton '\000') (Charset.singleton '\255'));
      ("full", Charset.full);
    ]
  in
  List.map
    (fun (name, set) ->
      test (Printf.sprintf "class agrees with Charset.mem (%s)" name)
        (fun () ->
          let g = Grammar.make_exn [ Production.v "P0" (Expr.cls set) ] in
          let engines =
            List.map
              (fun (label, config) -> (label, Engine.prepare_exn ~config g))
              configs
          in
          for b = 0 to 255 do
            let input = String.make 1 (Char.chr b) in
            let want = Charset.mem (Char.chr b) set in
            List.iter
              (fun (label, eng) ->
                check Alcotest.bool
                  (Printf.sprintf "[%s] byte %d" label b)
                  want
                  (Result.is_ok (Engine.parse eng input)))
              engines;
            check Alcotest.bool
              (Printf.sprintf "[reference] byte %d" b)
              want
              (Result.is_ok (Reference.parse g input).Reference.result)
          done))
    sets

(* --- the expected tracker's 32-entry cap ----------------------------------- *)

let expected_tests =
  [
    test "overflow keeps the 32 smallest labels, in any arrival order"
      (fun () ->
        (* The tracker holds at most [Expected.max_entries] distinct
           descriptions per position. Feed 48 distinct labels in two
           opposite orders: the retained set must be the same — the
           lexicographically smallest 32 — or the report past the cap
           would depend on the order alternatives are tried in. *)
        let labels = List.init 48 (Printf.sprintf "lbl%02d") in
        let run order =
          let t = Expected.create () in
          List.iter (fun l -> Expected.record t 5 l) order;
          (* duplicates never displace anything *)
          List.iter (fun l -> Expected.record t 5 l) order;
          List.sort String.compare (Expected.descriptions t)
        in
        let fwd = run labels and rev = run (List.rev labels) in
        check Alcotest.int "cap" Expected.max_entries (List.length fwd);
        check (Alcotest.list Alcotest.string) "order-independent" fwd rev;
        check (Alcotest.list Alcotest.string) "the 32 smallest"
          (List.filteri (fun i _ -> i < Expected.max_entries)
             (List.sort String.compare labels))
          fwd);
    test "a new farthest position resets an overflowed list" (fun () ->
        let t = Expected.create () in
        List.iter
          (fun l -> Expected.record t 2 l)
          (List.init 40 (Printf.sprintf "old%02d"));
        Expected.record t 7 "fresh";
        check Alcotest.int "farthest" 7 (Expected.farthest t);
        check
          (Alcotest.list Alcotest.string)
          "reset" [ "fresh" ] (Expected.descriptions t));
    test "expected sets are deduplicated" (fun () ->
        (* Two alternatives fail on the same literal at the same offset;
           without dispatch both really run, and the report must name
           the label once — as must the reference's. *)
        let g =
          Grammar.make_exn
            [
              Production.v "P0"
                (Expr.alt
                   [
                     Expr.chr 'a';
                     Expr.seq [ Expr.chr 'a'; Expr.chr 'b' ];
                     Expr.chr 'z';
                   ]);
            ]
        in
        let config = Config.v ~memo:Config.No_memo () in
        let no_dups label expected =
          check Alcotest.int (label ^ ": no duplicate entries")
            (List.length (List.sort_uniq compare expected))
            (List.length expected)
        in
        (match Engine.parse (Engine.prepare_exn ~config g) "q" with
        | Ok _ -> Alcotest.fail "should not parse"
        | Error e ->
            no_dups "engine" e.Parse_error.expected;
            check Alcotest.int "two labels" 2
              (List.length e.Parse_error.expected));
        match (Reference.parse g "q").Reference.result with
        | Ok _ -> Alcotest.fail "reference should not parse"
        | Error f -> no_dups "reference" f.Reference.expected);
    test "the expected set past the cap is the reference's, capped"
      (fun () ->
        (* 40 distinct literal alternatives, all sharing the "kw" prefix
           so FIRST-byte dispatch cannot prune them, all failing at
           offset 2 on "kw~~" — more than the cap. *)
        let open Builder in
        let g =
          b
            [
              prod "S"
                (alt (List.init 40 (fun i -> s (Printf.sprintf "kw%02d!" i))));
            ]
        in
        List.iter
          (fun (label, config) ->
            let out = Engine.run (Engine.prepare_exn ~config g) "kw~~" in
            (match out.Engine.result with
            | Ok _ -> Alcotest.failf "[%s] unexpected success" label
            | Error e ->
                check Alcotest.int (label ^ ": cap respected")
                  Expected.max_entries
                  (List.length e.Parse_error.expected));
            Option.iter (Alcotest.failf "[%s] %s" label)
              (Oracle.mismatch ~config g "kw~~" out))
          configs);
  ]

(* --- the reference interpreter on directed cases ----------------------------- *)

(* An alternative records a name into a state table and then fails; the
   backtrack must roll the table back so the later alternative does not
   see the phantom entry — with several nested choice points between the
   record and the failure in the [deep] variant. Then the builtin
   corpora, whose trees must equal the reference interpreter's under
   every memo strategy. *)
let reference_tests =
  let agree ?(configs = [ Config.optimized; Config.packrat ]) ?accepts name g
      input =
    test name (fun () ->
        List.iter
          (fun config ->
            let out = Engine.run (Engine.prepare_exn ~config g) input in
            Option.iter Alcotest.fail (Oracle.mismatch ~config g input out);
            Option.iter
              (check Alcotest.bool "accepted" (Result.is_ok out.Engine.result))
              accepts)
          configs)
  in
  let name_ = Expr.plus (Expr.cls (Charset.range 'a' 'z')) in
  let g =
    Grammar.make_exn
      [
        Production.v "P0"
          (Expr.alt
             [
               Expr.seq [ Expr.record "T" (Expr.token name_); Expr.fail "no" ];
               Expr.seq
                 [ Expr.member "T" false (Expr.token name_); Expr.str "!" ];
             ]);
      ]
  in
  let deep =
    Grammar.make_exn
      [
        Production.v "P0"
          (Expr.alt
             [
               Expr.seq
                 [
                   Expr.record "T" (Expr.token name_);
                   Expr.alt [ Expr.str "--"; Expr.str "++" ];
                   Expr.star (Expr.chr '.');
                   Expr.fail "no";
                 ];
               Expr.seq [ Expr.member "T" false (Expr.token name_); Expr.any () ];
             ]);
      ]
  in
  let corpora =
    [
      ( "calc",
        Grammars.Calc.grammar (),
        Grammars.Corpus.arith (Rng.create 7) ~size:400 );
      ( "json",
        Grammars.Json.grammar (),
        Grammars.Corpus.json (Rng.create 7) ~size:400 );
      ( "minic",
        Grammars.Minic.grammar (),
        Grammars.Corpus.minic (Rng.create 7) ~functions:4 );
      ( "minijava",
        Grammars.Minijava.grammar (),
        Grammars.Corpus.minijava (Rng.create 7) ~classes:2 );
    ]
  in
  [
    agree "record rolled back across a failed alternative" g "abc!";
    agree "rollback agrees on rejection too" g "abc";
    agree "unwinding pops through nested choices and loops" deep "abc--...x";
    agree "nested unwinding agrees on rejection" deep "abc--";
  ]
  @ List.concat_map
      (fun (name, g, corpus) ->
        let opt = Pipeline.optimize g in
        List.map
          (fun (cfg_name, config) ->
            agree ~configs:[ config ] ~accepts:true
              (Printf.sprintf "%s corpus values equal (%s)" name cfg_name)
              opt corpus)
          [
            ("optimized", Config.optimized);
            ("packrat", Config.packrat);
            ("no memo", Config.naive);
          ])
      corpora

(* --- the reference interpreter's own answers ------------------------------- *)

(* The oracle is only as good as its semantics, so it is also pinned to
   hand-derived answers: value shaping, the farthest-failure report, the
   uncapped expected set and partial parses. *)
let reference_answer_tests =
  let failure g input =
    match Reference.parse g input with
    | { Reference.result = Ok v; _ } ->
        Alcotest.failf "accepted %S as %s" input (Value.to_string v)
    | { result = Error f; consumed } -> (f, consumed)
  in
  let lower = Expr.plus (Expr.range 'a' 'z')
  and digit = Expr.plus (Expr.range '0' '9') in
  [
    test "shapes values by kind, binding and drop" (fun () ->
        let g =
          Grammar.make_exn
            [
              Production.v ~attrs:(Attr.v ~kind:Attr.Generic ()) "Pair"
                (Expr.seq
                   [
                     Expr.bind "l" (Expr.ref_ "Word");
                     Expr.drop (Expr.cls (Charset.singleton ','));
                     Expr.bind "r" (Expr.token digit);
                   ]);
              Production.v ~attrs:(Attr.v ~kind:Attr.Text ()) "Word" lower;
            ]
        in
        match (Reference.parse g "ab,12").Reference.result with
        | Error _ -> Alcotest.fail "rejected"
        | Ok v ->
            check value_eq "node"
              (Value.node "Pair"
                 [ (Some "l", Value.Str "ab"); (Some "r", Value.Str "12") ])
              v);
    test "reports the farthest failure with every label there" (fun () ->
        let g =
          Grammar.make_exn
            [ Production.v "P0" (Expr.alt [ Expr.str "ab"; Expr.str "ac"; Expr.str "x" ]) ]
        in
        let f, consumed = failure g "ad" in
        check Alcotest.int "position" 1 f.Reference.position;
        check Alcotest.int "labels" 2 (List.length f.Reference.expected);
        check Alcotest.int "consumed" (-1) consumed);
    test "keeps the expected set uncapped" (fun () ->
        let g =
          Grammar.make_exn
            [
              Production.v "P0"
                (Expr.alt
                   (List.init 40 (fun i -> Expr.str (Printf.sprintf "kw%02d!" i))));
            ]
        in
        let f, _ = failure g "kw~~" in
        check Alcotest.int "position" 2 f.Reference.position;
        check Alcotest.int "all labels" 40 (List.length f.Reference.expected));
    test "require_eof decides whether a prefix is a parse" (fun () ->
        let g = Grammar.make_exn [ Production.v "P0" (Expr.token lower) ] in
        (match Reference.parse ~require_eof:false g "ab1" with
        | { Reference.result = Ok v; consumed } ->
            check value_eq "prefix value" (Value.Str "ab") v;
            check Alcotest.int "consumed" 2 consumed
        | { result = Error _; _ } -> Alcotest.fail "prefix rejected");
        let f, _ = failure g "ab1" in
        check Alcotest.int "eof failure position" 2 f.Reference.position);
  ]

(* --- revisit analysis: one-shot memo layout ------------------------------------- *)

let kept_names eng =
  match Engine.one_shot_slots eng with
  | None -> Alcotest.fail "revisit analysis did not run"
  | Some rs -> List.map (fun (r : Analysis.revisit) -> r.Analysis.production) rs

(* A store-less run skips only memo entries no run could hit: against a
   run on a fresh store (every slot kept) it does exactly the same work. *)
let check_same_work label eng input =
  let a = Engine.run eng input in
  let b = Engine.run_store eng (Engine.new_store eng) input in
  let sa = a.Engine.stats and sb = b.Engine.stats in
  check Alcotest.int (label ^ ": invocations") sb.Stats.invocations
    sa.Stats.invocations;
  check Alcotest.int (label ^ ": memo hits") sb.Stats.memo_hits
    sa.Stats.memo_hits;
  check Alcotest.int (label ^ ": backtracks") sb.Stats.backtracks
    sa.Stats.backtracks;
  check Alcotest.int (label ^ ": consumed") b.Engine.consumed a.Engine.consumed;
  check Alcotest.bool (label ^ ": fewer stores") true
    (sa.Stats.memo_stores <= sb.Stats.memo_stores)

let revisit_tests =
  let open Builder in
  let eng g = Engine.prepare_exn ~config:Config.optimized g in
  [
    test "calc: shared '(' prefix keeps Sum, nothing else" (fun () ->
        let e = calc_eng Config.optimized Limits.unlimited in
        check Alcotest.(list string) "store" [ "Sum"; "Term"; "Factor" ]
          (Engine.store_slots e);
        check Alcotest.(list string) "one-shot" [ "Sum" ] (kept_names e);
        (match Engine.one_shot_slots e with
        | Some [ r ] ->
            check Alcotest.string "site" "Factor" r.Analysis.site;
            check Alcotest.string "point" "alternatives <Pow> / <Paren>"
              r.Analysis.point
        | _ -> Alcotest.fail "one witness expected");
        List.iter
          (fun input -> check_same_work input e input)
          [ "((1+2)*3)**2"; "1+2*3-4/5"; "(((7)))"; "2**(3+"; "(1)**(2)**3" ]);
    test "json: no backtrack point revisits, nothing kept" (fun () ->
        let e = eng (Pipeline.optimize (Grammars.Json.grammar ())) in
        check Alcotest.(list string) "one-shot" [] (kept_names e);
        check_same_work "json" e
          {|{"a": [1, 2.5e3, true, null], "b": {"c": "d\"e"}}|});
    test "nullable sequence A? A keeps A" (fun () ->
        let e =
          eng
            (grammar ~start:"S"
               [ prod "S" (opt (e "A") @: e "A" @: c 'c'); prod "A" (c 'a' @: c 'b') ])
        in
        check Alcotest.(list string) "one-shot" [ "A" ] (kept_names e);
        check_same_work "ac" e "abc";
        check_same_work "a" e "ax");
    test "a demoted caller no longer shields its callee" (fun () ->
        (* Q is memoized but never revisited, so its slot goes — and with
           it any claim that Q's memo spares P a second run: the second
           alternative runs P again through Q's body. *)
        let e =
          eng
            (grammar ~start:"S"
               [
                 prod "S" (e "P" @: c 'x' <|> e "Q");
                 prod "Q" (e "P" @: c 'y');
                 prod "P" (c 'a');
               ])
        in
        check Alcotest.(list string) "one-shot" [ "P" ] (kept_names e);
        check_same_work "ay" e "ay");
    test "a lead call after different matchers is no certain hit" (fun () ->
        (* Both alternatives lead to Q, but after 'a' and after "ab":
           the second calls Q one byte later, runs its body afresh and
           reaches P at the offset the first alternative already did. *)
        let e =
          eng
            (grammar ~start:"S"
               [
                 prod "S" (c 'a' @: e "Q" @: c 'x' <|> c 'a' @: c 'b' @: e "Q");
                 prod "Q" (star (one_of "ab") @: e "P");
                 prod "P" (c 'c');
               ])
        in
        check Alcotest.bool "P kept" true (List.mem "P" (kept_names e));
        check_same_work "abc" e "abc");
    test "a failed alternative that looked past the winner's end" (fun () ->
        (* (T U 'c' / T) U on "ab": the first alternative runs U at 1,
           fails at 'c'; T wins at 1 and U runs at 1 again. *)
        let e =
          eng
            (grammar ~start:"S"
               [
                 prod "S" ((e "T" @: e "U" @: c 'c' <|> e "T") @: e "U");
                 prod "U" (c 'b');
                 prod "T" (c 'a');
               ])
        in
        check Alcotest.(list string) "one-shot" [ "U"; "T" ] (kept_names e);
        check_same_work "ab" e "ab");
    test "builtin corpora: one-shot does a fresh store's work" (fun () ->
        let rng () = Rng.create 11 in
        List.iter
          (fun (label, g, input) ->
            check_same_work label (eng (Pipeline.optimize g)) input)
          [
            ("calc", Grammars.Calc.grammar (), Grammars.Corpus.arith (rng ()) ~size:400);
            ("json", Grammars.Json.grammar (), Grammars.Corpus.json (rng ()) ~size:400);
            ("minic", Grammars.Minic.grammar (), Grammars.Corpus.minic (rng ()) ~functions:4);
            ( "minijava",
              Grammars.Minijava.grammar (),
              Grammars.Corpus.minijava (rng ()) ~classes:2 );
            ("calc, failing", Grammars.Calc.grammar (), "((3)**2)*(4");
          ]);
    test "E4's pathological grammar stays linear one-shot" (fun () ->
        let g = Grammars.Path.grammar () in
        let e = eng g in
        let invs depth =
          (Engine.run e (Grammars.Corpus.pathological ~depth)).Engine.stats
            .Stats.invocations
        in
        check_same_work "depth 20" e (Grammars.Corpus.pathological ~depth:20);
        check Alcotest.bool "linear" true (invs 40 < 3 * invs 20));
  ]

let () =
  Alcotest.run "runtime"
    [
      ("matching", matching_tests);
      ("entry", entry_tests);
      ("memo", memo_tests);
      ("state", state_tests);
      ("pathological", path_tests);
      ("limits", limits_tests);
      ("charsets", charset_tests);
      ("expected", expected_tests);
      ("reference", reference_tests);
      ("reference-answers", reference_answer_tests);
      ("revisit", revisit_tests);
    ]
