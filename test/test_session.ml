(* Property tests for incremental parse sessions.

   The headline invariant: for any grammar, initial input and edit
   script, [Session.reparse] is observationally identical to a cold
   parse of the final buffer — same value under [Value.equal], same
   farthest-failure position, same expected set, byte-identical
   rendered error message — and a warm reparse is the reference
   interpreter's parse of the edited text. Checked after every reparse,
   under both memo strategies, with single edits and composed
   multi-edit batches.

   Grammar and input generation mirrors test_props: stratified
   non-recursive grammars over a 4-letter alphabet, inputs from a
   directed walk with a mutation chance so rejecting buffers (and thus
   the cold-fallback error path) stay in the mix. *)

open Rats
module Gen = QCheck.Gen

let alphabet = [ 'a'; 'b'; 'c'; 'd' ]
let gen_char = Gen.oneofl alphabet

let gen_charset st =
  let s = ref Charset.empty in
  List.iter (fun c -> if Gen.bool st then s := Charset.add c !s) alphabet;
  if Charset.is_empty !s then Charset.singleton 'a' else !s

let gen_short_string st =
  let n = 1 + Gen.int_bound 2 st in
  String.init n (fun _ -> gen_char st)

let rec gen_expr ~refs ~depth st : Expr.t =
  if depth <= 0 then gen_leaf ~refs st
  else
    match Gen.int_bound 13 st with
    | 0 | 1 ->
        Expr.seq
          (List.init (2 + Gen.int_bound 1 st) (fun _ ->
               gen_expr ~refs ~depth:(depth - 1) st))
    | 2 | 3 ->
        Expr.alt
          (List.init (2 + Gen.int_bound 1 st) (fun _ ->
               gen_expr ~refs ~depth:(depth - 1) st))
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
        (* Stateful constructs: sessions must stay correct when entries
           depend on the state tables (version seeding, not extent
           tracking, is what protects these). *)
        if Gen.bool st then
          Expr.record "T" (gen_consuming ~refs ~depth:(depth - 1) st)
        else
          Expr.member "T" (Gen.bool st)
            (gen_consuming ~refs ~depth:(depth - 1) st)

and gen_leaf ~refs st =
  match Gen.int_bound 5 st with
  | 0 -> Expr.chr (gen_char st)
  | 1 -> Expr.str (gen_short_string st)
  | 2 -> Expr.cls (gen_charset st)
  | 3 -> Expr.empty
  | 4 -> (
      match refs with
      | [] -> Expr.chr (gen_char st)
      | _ -> Expr.ref_ (List.nth refs (Gen.int_bound (List.length refs - 1) st))
      )
  | _ -> Expr.any ()

and gen_consuming ~refs ~depth st =
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
        Production.v (name i) (gen_expr ~refs ~depth:3 st))
  in
  Grammar.make_exn ~start:"P0" prods

let walk_input g st =
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
  Buffer.contents buf

(* A one-byte mutation half the time keeps rejecting buffers in the mix. *)
let mutate st s =
  if Gen.bool st || String.length s = 0 then s
  else
    let i = Gen.int_bound (String.length s - 1) st in
    String.mapi (fun j c -> if j = i then gen_char st else c) s

let gen_input g st = mutate st (walk_input g st)

(* An edit script: a list of batches; each batch is applied in full
   before one reparse (so relocation composes across edits). Offsets
   are generated against the evolving buffer length, tracked here so
   every edit is in bounds by construction. *)

type edit = { start : int; old_len : int; replacement : string }

let gen_replacement g st =
  match Gen.int_bound 3 st with
  | 0 -> ""
  | 1 -> String.init (1 + Gen.int_bound 3 st) (fun _ -> gen_char st)
  | 2 ->
      (* Grammar-directed snippets make structure-preserving edits more
         likely, which is where memo reuse actually fires. *)
      let s = gen_input g st in
      if String.length s > 6 then String.sub s 0 6 else s
  | _ -> gen_short_string st

let gen_script g input st =
  let len = ref (String.length input) in
  let batches = 1 + Gen.int_bound 3 st in
  List.init batches (fun _ ->
      let edits = 1 + Gen.int_bound 1 st in
      List.init edits (fun _ ->
          let start = Gen.int_bound (max 0 !len) st in
          let old_len = min (!len - start) (Gen.int_bound 3 st) in
          let replacement = gen_replacement g st in
          len := !len - old_len + String.length replacement;
          { start; old_len; replacement }))

let gen_case st =
  let rec retry k =
    let g = gen_grammar st in
    if Analysis.check (Analysis.analyze g) = [] then g
    else if k > 50 then Grammar.make_exn [ Production.v "P0" (Expr.chr 'a') ]
    else retry (k + 1)
  in
  let g = retry 0 in
  let input = gen_input g st in
  (g, input, gen_script g input st)

let print_case (g, input, script) =
  Printf.sprintf "grammar:\n%s\ninput: %S\nscript: %s"
    (Pretty.grammar_to_string g)
    input
    (String.concat "; "
       (List.map
          (fun batch ->
            "["
            ^ String.concat ", "
                (List.map
                   (fun e ->
                     Printf.sprintf "@%d -%d +%S" e.start e.old_len
                       e.replacement)
                   batch)
            ^ "]")
          script))

let arb_case = QCheck.make ~print:print_case gen_case

(* Reuse-point grammars: the start production repeats whole calls of
   later productions ([(P1 / P2)* ...]), and some of those are choices of
   whole calls again, so the transients pass keeps single-use items'
   slots for sessions (the plain generator's repetition bodies are never
   a bare call, so it never does). Every production but the start
   consumes input, so each repetition is well-formed. *)
let gen_item_grammar st =
  let n = 3 + Gen.int_bound 3 st in
  let name i = Printf.sprintf "P%d" i in
  let later i = List.init (n - i - 1) (fun j -> name (i + j + 1)) in
  let call i =
    let pick () = Gen.oneofl (later i) st in
    match (later i, Gen.int_bound 2 st) with
    | [ only ], _ -> Expr.ref_ only
    | _, 0 -> Expr.ref_ (pick ())
    | _, 1 -> Expr.node "W" (Expr.ref_ (pick ()))
    | _ -> Expr.alt [ Expr.ref_ (pick ()); Expr.ref_ (pick ()) ]
  in
  let body i =
    if i = 0 then
      Expr.seq [ Expr.star (call 0); gen_expr ~refs:(later 0) ~depth:1 st ]
    else if i < n - 1 && Gen.int_bound 2 st = 0 then call i
    else gen_consuming ~refs:(later i) ~depth:2 st
  in
  (* Small productions are inlined and plain lexical ones are left
     unmemoized by the terminals pass; [noinline] generic ones keep
     the slots the rule gives them through the whole pipeline. *)
  let attrs () =
    let kind = if Gen.int_bound 2 st > 0 then Attr.Generic else Attr.Plain in
    let inline = if Gen.bool st then Attr.Inline_never else Attr.Inline_auto in
    Attr.v ~kind ~inline ()
  in
  Grammar.make_exn ~start:"P0"
    (List.init n (fun i -> Production.v ~attrs:(attrs ()) (name i) (body i)))

(* A buffer of 1-8 items then the rest of the start production, with
   an edit script that mostly replaces, deletes or inserts whole items
   (fresh walks of the repetition body), so warm reparses keep meeting
   the items' entries; one edit in four is a raw byte edit as in
   [gen_script], after which item boundaries are no longer tracked. *)
let gen_item_case st =
  let g =
    let g = gen_item_grammar st in
    if Analysis.check (Analysis.analyze g) = [] then g
    else Grammar.make_exn [ Production.v "P0" (Expr.star (Expr.chr 'a')) ]
  in
  let item, rest =
    match (Grammar.find_exn g "P0").expr.Expr.it with
    | Expr.Seq ({ Expr.it = Expr.Star item; _ } :: rest) -> (item, rest)
    | Expr.Star item -> (item, [])
    | _ -> (Expr.chr 'a', [])
  in
  let walk e =
    walk_input (Grammar.update g "P0" (fun p -> Production.with_expr p e)) st
  in
  let items = List.init (1 + Gen.int_bound 7 st) (fun _ -> walk item) in
  let input = mutate st (String.concat "" items ^ walk (Expr.seq rest)) in
  let lens = ref (Some (List.map String.length items)) in
  let len = ref (String.length input) in
  (* Replace or delete item [k], or insert a fresh one before it. *)
  let item_edit ls =
    let n = List.length ls in
    let k = Gen.int_bound n st in
    let before = List.filteri (fun i _ -> i < k) ls in
    let drop = if k < n && Gen.int_bound 2 st > 0 then 1 else 0 in
    let fresh = if drop = 1 && Gen.bool st then "" else walk item in
    let after = List.filteri (fun i _ -> i >= k + drop) ls in
    let kept = if fresh = "" then [] else [ String.length fresh ] in
    lens := Some (before @ kept @ after);
    {
      start = List.fold_left ( + ) 0 before;
      old_len = (if drop = 1 then List.nth ls k else 0);
      replacement = fresh;
    }
  in
  let script =
    List.init (1 + Gen.int_bound 2 st) (fun _ ->
        List.init (1 + Gen.int_bound 1 st) (fun _ ->
            let e =
              match !lens with
              | Some ls when Gen.int_bound 3 st > 0 -> item_edit ls
              | _ ->
                  lens := None;
                  let start = Gen.int_bound (max 0 !len) st in
                  let old_len = min (!len - start) (Gen.int_bound 3 st) in
                  { start; old_len; replacement = gen_replacement g st }
            in
            len := !len - e.old_len + String.length e.replacement;
            e))
  in
  (g, input, script)

let arb_item_case = QCheck.make ~print:print_case gen_item_case

let splice text { start; old_len; replacement } =
  String.sub text 0 start
  ^ replacement
  ^ String.sub text (start + old_len) (String.length text - start - old_len)

(* Full observation, error message included: the session contract is
   byte-identical reports, not just equal positions. *)
type obs = Accept of Value.t | Reject of int * string list * string

let obs_of = function
  | Ok v -> Accept v
  | Error e ->
      Reject
        ( e.Parse_error.position,
          e.Parse_error.expected,
          Parse_error.to_string e )

let obs_equal a b =
  match (a, b) with
  | Accept va, Accept vb -> Value.equal va vb
  | Reject (pa, ea, ma), Reject (pb, eb, mb) ->
      pa = pb && ea = eb && String.equal ma mb
  | Accept _, Reject _ | Reject _, Accept _ -> false

let obs_print = function
  | Accept v -> "accept " ^ Value.to_string v
  | Reject (p, e, _) ->
      Printf.sprintf "reject@%d [%s]" p (String.concat "; " e)

let configs =
  [
    ("optimized", Config.optimized);
    ("hashtable", Config.packrat);
    ("chunked", Config.v ~memo:Config.Chunked ~honor_transient:true ());
    ( "optimized-governed",
      Config.with_limits
        (Limits.v ~fuel:200_000 ~max_depth:200 ())
        Config.optimized );
  ]

let session_equiv_prop ?(arb = arb_case) ?(prepare = Fun.id) (label, cfg)
    count =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "reparse = cold parse = reference on final buffer (%s)"
         label)
    ~count arb
    (fun (g, input, script) ->
      match Engine.prepare ~config:cfg (prepare g) with
      | Error _ -> true
      | Ok eng ->
          let session = Session.create eng input in
          let check tag =
            let result = Session.reparse session in
            let warm = obs_of result in
            let cold = obs_of (parse eng (Session.text session)) in
            if not (obs_equal warm cold) then
              QCheck.Test.fail_reportf
                "%s: session %s, cold %s (buffer %S)" tag (obs_print warm)
                (obs_print cold) (Session.text session);
            ignore
              (Oracle.holds
                 (Oracle.result_mismatch ~config:cfg g (Session.text session)
                    result))
          in
          check "initial";
          let text = ref input in
          List.iteri
            (fun i batch ->
              List.iter
                (fun e ->
                  text := splice !text e;
                  Session.apply_edit session ~start:e.start ~old_len:e.old_len
                    ~replacement:e.replacement)
                batch;
              (* The session's own splice must agree with the spec. *)
              if not (String.equal !text (Session.text session)) then
                QCheck.Test.fail_reportf "buffer mismatch: %S vs %S" !text
                  (Session.text session);
              check (Printf.sprintf "batch %d" i))
            script;
          true)

let session_props =
  List.map (fun c -> session_equiv_prop c 150) configs

(* Sessions on the optimizer's store layout, reuse points included,
   against the reference on the grammar as written. *)
let reuse_point_props =
  List.map
    (fun c ->
      session_equiv_prop ~arb:arb_item_case ~prepare:Pipeline.optimize c 500)
    [
      ("optimized pipeline, reuse points", Config.optimized);
      ( "optimized pipeline, reuse points, governed",
        Config.with_limits
          (Limits.v ~fuel:200_000 ~max_depth:200 ())
          Config.optimized );
    ]

(* Error rendering is deterministic: the same failing parse renders the
   same message on repeated runs (expected sets are sorted before
   display, so trace-discovery order cannot leak), and reports the
   reference interpreter's position and expected set. *)
let determinism_props =
  [
    QCheck.Test.make
      ~name:"error messages are byte-identical across runs and are the \
             reference's"
      ~count:300 arb_case
      (fun (g, input, _) ->
        match Engine.prepare ~config:Config.packrat g with
        | Ok eng -> (
            let first = parse eng input in
            Oracle.holds
              (Oracle.result_mismatch ~config:Config.packrat g input first)
            &&
            match (first, parse eng input) with
            | Ok _, Ok _ -> true
            | Error e1, Error e2 ->
                String.equal (Parse_error.to_string e1)
                  (Parse_error.to_string e2)
            | _ -> false)
        | Error _ -> Oracle.refused g);
  ]

(* Stats bookkeeping: reuse counters are per-reparse (reset each time),
   and an unedited reparse reuses without relocating. *)
let unit_tests =
  let calc () =
    Engine.prepare_exn ~config:Config.optimized
      (Pipeline.optimize (Grammars.Calc.grammar ()))
  in
  [
    Alcotest.test_case "unedited reparse reuses, never relocates" `Quick
      (fun () ->
        let s = Session.create (calc ()) "1+2*(3-4)" in
        (match Session.reparse s with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "parse failed: %s" (Parse_error.message e));
        Session.apply_edit s ~start:0 ~old_len:0 ~replacement:"";
        ignore (Session.reparse s);
        let st = Session.stats s in
        Alcotest.(check bool) "reused > 0" true (st.Stats.memo_reused > 0);
        Alcotest.(check int) "relocated = 0" 0 st.Stats.memo_relocated);
    Alcotest.test_case "out-of-bounds edits are rejected" `Quick (fun () ->
        let s = Session.create (calc ()) "1+2" in
        let bad f =
          match f () with
          | () -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ()
        in
        bad (fun () ->
            Session.apply_edit s ~start:(-1) ~old_len:0 ~replacement:"");
        bad (fun () ->
            Session.apply_edit s ~start:0 ~old_len:4 ~replacement:"");
        bad (fun () ->
            Session.apply_edit s ~start:4 ~old_len:0 ~replacement:""));
    Alcotest.test_case "reparse honours a deadline, fallback included" `Quick
      (fun () ->
        (* 40 KB of calc spans several 65,536-invocation fuel slices, so
           a deadline is polled; a store run keeps every memo slot. *)
        let text = "1" ^ String.concat "" (List.init 20_000 (fun _ -> "+1")) in
        let eng = calc () in
        let bare = Session.create eng text and timed = Session.create eng text in
        let never () = false in
        let a = Session.reparse bare and b = Session.reparse ~expired:never timed in
        Alcotest.(check bool) "same verdict" (Result.is_ok a) (Result.is_ok b);
        Alcotest.(check (list (pair string int)))
          "same counters" (Stats.fields (Session.stats bare))
          (Stats.fields (Session.stats timed));
        let cold = Session.create eng text in
        let polls = ref 0 in
        let expired () =
          incr polls;
          true
        in
        (match Session.reparse ~expired cold with
        | Ok _ -> Alcotest.fail "a passed deadline must trip"
        | Error e ->
            Alcotest.(check (option string))
              "deadline" (Some "deadline")
              (Option.map Limits.which_name (Parse_error.exhausted_which e)));
        Alcotest.(check bool) "polled" true (!polls > 0);
        Alcotest.(check int) "no cold re-parse past the deadline" 0
          (Session.cold_fallbacks cold);
        (* a syntax error still re-parses cold, under the same deadline *)
        Session.apply_edit timed ~start:0 ~old_len:1 ~replacement:"+";
        match Session.reparse ~expired:never timed with
        | Ok _ -> Alcotest.fail "leading '+' must not parse"
        | Error e ->
            Alcotest.(check (option string))
              "syntax error" None
              (Option.map Limits.which_name (Parse_error.exhausted_which e));
            Alcotest.(check int) "cold re-parse" 1 (Session.cold_fallbacks timed));
    Alcotest.test_case "a one-byte edit re-runs about 1% of a cold parse"
      `Quick (fun () ->
        (* The reuse points of the store layout (ClassDecl, Method,
           Field) let a reparse step over every undamaged class and
           member; with them single-use and unmemoized it re-ran every
           member header (1,602 of 41,964 invocations). *)
        let g = Grammars.Minijava.grammar () in
        let eng =
          Engine.prepare_exn ~config:Config.optimized (Pipeline.optimize g)
        in
        let text = Grammars.Corpus.minijava (Rng.create 7) ~classes:40 in
        Alcotest.(check int) "corpus size" 33_713 (String.length text);
        let s = Session.create eng text in
        let cold = Session.reparse s in
        let cold_calls = (Session.stats s).Stats.invocations in
        let at =
          let rec digit i =
            if text.[i] >= '0' && text.[i] <= '9' then i else digit (i + 1)
          in
          digit (String.length text / 2)
        in
        let d = if text.[at] = '7' then "3" else "7" in
        Session.apply_edit s ~start:at ~old_len:1 ~replacement:d;
        let warm = Session.reparse s in
        let warm_calls = (Session.stats s).Stats.invocations in
        if 100 * warm_calls > cold_calls then
          Alcotest.failf "warm reparse: %d invocations, cold parse: %d"
            warm_calls cold_calls;
        Alcotest.(check int) "no cold fallback" 0 (Session.cold_fallbacks s);
        Alcotest.(check bool) "cold parse accepts" true (Result.is_ok cold);
        let edited = Session.text s in
        let fresh = parse eng edited in
        if not (obs_equal (obs_of warm) (obs_of fresh)) then
          Alcotest.failf "warm %s, cold %s" (obs_print (obs_of warm))
            (obs_print (obs_of fresh));
        match Oracle.result_mismatch ~config:Config.optimized g edited warm with
        | None -> ()
        | Some report -> Alcotest.fail report);
    Alcotest.test_case "edit at buffer end appends" `Quick (fun () ->
        let s = Session.create (calc ()) "1+2" in
        ignore (Session.reparse s);
        Session.apply_edit s ~start:3 ~old_len:0 ~replacement:"*3";
        Alcotest.(check string) "buffer" "1+2*3" (Session.text s);
        match Session.reparse s with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "parse failed: %s" (Parse_error.message e));
  ]

(* Arena-recycling equivalence: the memo arena and pooled scratch
   introduced for the allocation-free hot path must be invisible.

   Two angles, over chunked and hashtable memo, governed and
   ungoverned:

   - Twin sessions driven through the identical edit script must agree
     on every observation AND on every [Stats] counter at every step —
     one twin runs on an engine whose scratch pool is already warm from
     unrelated parses, so a stale pooled arena, value slot or bucket
     table would surface as a divergence.

   - After the full script (arena grown, chunks freed and recycled),
     the session's reparse must match a fresh session over the same
     final buffer — cold store, never-used arena — on value, farthest
     position, expected set and rendered message. When nothing survived
     the edits ([memo_reused = 0]) the recycled store is semantically
     cold too, and the full counter set must match the fresh store's. *)

let governed_limits = Limits.v ~fuel:200_000 ~max_depth:200 ()

let recycle_configs =
  [
    ("optimized", Config.optimized);
    ("hashtable", Config.packrat);
    ("optimized-governed", Config.with_limits governed_limits Config.optimized);
    ("hashtable-governed", Config.with_limits governed_limits Config.packrat);
  ]

let stats_fields s = Stats.fields s

let check_stats_equal tag a b =
  let fa = stats_fields a and fb = stats_fields b in
  if fa <> fb then
    QCheck.Test.fail_reportf "%s: stats diverge:\n  %s\n  %s" tag
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fa))
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fb))

let twin_stats_prop (label, cfg) count =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "twin sessions: identical stats at every step (%s)"
         label)
    ~count arb_case
    (fun (g, input, script) ->
      match Engine.prepare ~config:cfg g with
      | Error _ -> true
      | Ok eng ->
          (* Warm one twin's scratch pool with unrelated inputs first;
             recycled state must not leak into the session runs. *)
          ignore (parse eng "abab");
          ignore (parse eng "");
          let sa = Session.create eng input in
          let sb = Session.create eng input in
          let step tag =
            let ra = obs_of (Session.reparse sa) in
            let rb = obs_of (Session.reparse sb) in
            if not (obs_equal ra rb) then
              QCheck.Test.fail_reportf "%s: %s vs %s" tag (obs_print ra)
                (obs_print rb);
            check_stats_equal tag (Session.stats sa) (Session.stats sb)
          in
          step "initial";
          List.iteri
            (fun i batch ->
              List.iter
                (fun e ->
                  Session.apply_edit sa ~start:e.start ~old_len:e.old_len
                    ~replacement:e.replacement;
                  Session.apply_edit sb ~start:e.start ~old_len:e.old_len
                    ~replacement:e.replacement)
                batch;
              step (Printf.sprintf "batch %d" i))
            script;
          true)

let recycled_vs_fresh_prop (label, cfg) count =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "recycled store = fresh cold store (%s)" label)
    ~count arb_case
    (fun (g, input, script) ->
      match Engine.prepare ~config:cfg g with
      | Error _ -> true
      | Ok eng ->
          let s = Session.create eng input in
          ignore (Session.reparse s);
          List.iter
            (fun batch ->
              List.iter
                (fun e ->
                  Session.apply_edit s ~start:e.start ~old_len:e.old_len
                    ~replacement:e.replacement)
                batch;
              ignore (Session.reparse s))
            script;
          (* One more edit cycle over the now well-recycled arena,
             compared against a never-used store on the same buffer. *)
          let tail = if String.length (Session.text s) = 0 then "ab" else "" in
          Session.apply_edit s ~start:0 ~old_len:0 ~replacement:tail;
          let recycled = obs_of (Session.reparse s) in
          let fresh_session = Session.create eng (Session.text s) in
          let fresh = obs_of (Session.reparse fresh_session) in
          if not (obs_equal recycled fresh) then
            QCheck.Test.fail_reportf "recycled %s, fresh %s (buffer %S)"
              (obs_print recycled) (obs_print fresh) (Session.text s);
          let st = Session.stats s in
          if st.Stats.memo_reused = 0 then
            check_stats_equal "no-survivor reparse" st
              (Session.stats fresh_session);
          true)

let recycle_props =
  List.map (fun c -> twin_stats_prop c 60) recycle_configs
  @ List.map (fun c -> recycled_vs_fresh_prop c 60) recycle_configs

let () =
  let to_alco = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "session"
    [
      ("session-equivalence", to_alco session_props);
      ("reuse-points", to_alco reuse_point_props);
      ("arena-recycling", to_alco recycle_props);
      ("error-determinism", to_alco determinism_props);
      ("session-unit", unit_tests);
    ]
