open Rats_peg
open Rats_runtime

let voidify g =
  Grammar.map
    (fun (p : Production.t) ->
      Production.with_attrs p { p.Production.attrs with Attr.kind = Attr.Void })
    g

let tile unit target =
  let b = Buffer.create (target + String.length unit) in
  while Buffer.length b < target do
    Buffer.add_string b unit
  done;
  Buffer.contents b

(* Promoted words are in both the minor and the major total.
   [Gc.minor_words ()] is live; [Gc.quick_stat]'s copy is stale
   between collections. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let word_bytes = float_of_int (Sys.word_size / 8)

let bytes_per_parse ?(warmups = 2) ?(runs = 8) eng input =
  for _ = 1 to warmups do
    match (Engine.run_input eng input).Engine.result with
    | Ok _ -> ()
    | Error e ->
        failwith ("Alloc_probe: probe parse failed: " ^ Parse_error.message e)
  done;
  let w0 = words () in
  for _ = 1 to runs do
    ignore (Engine.run_input eng input)
  done;
  (words () -. w0) *. word_bytes /. float_of_int runs

type rung = { r_name : string; r_grammar : Grammar.t; r_unit : string }

(* One construct per rung, in the position real grammars use it. Every
   grammar accepts any tiling of [r_unit]; kinds are what the un-erased
   grammar would use (Text for captures, Generic for nodes), so
   voidification exercises the same erasure the batch ladder performs. *)
let ladder () =
  let open Builder in
  let digits = Charset.range '0' '9' in
  let g ?start prods = grammar ?start prods in
  let top body = prod ~public:true "S" (star body) in
  [
    { r_name = "charclass"; r_unit = "7;";
      r_grammar = g [ top (cls digits @: c ';') ] };
    { r_name = "range-byte"; r_unit = "7;";
      (* a Plain production whose body yields the matched byte: the
         range's Chr value is live pre-erasure *)
      r_grammar =
        g ~start:"S"
          [ top (e "Digit" @: c ';'); prod "Digit" (cls digits) ] };
    { r_name = "literal"; r_unit = "ab;";
      r_grammar = g [ top (s "ab" @: c ';') ] };
    { r_name = "token-capture"; r_unit = "123;";
      r_grammar =
        g ~start:"S"
          [ top (e "Num" @: c ';');
            prod ~kind:Attr.Text "Num" (tok (plus (cls digits))) ] };
    { r_name = "binding"; r_unit = "1;";
      r_grammar = g [ top (("d" |: cls digits) @: c ';') ] };
    { r_name = "binding-under-predicate"; r_unit = "1;";
      r_grammar =
        g [ top (amp ("d" |: cls digits) @: cls digits @: c ';') ] };
    { r_name = "not-predicate"; r_unit = "1;";
      r_grammar = g [ top (bang (c 'x') @: cls digits @: c ';') ] };
    { r_name = "seq-alt-star"; r_unit = "12+3;";
      r_grammar =
        g ~start:"S"
          [ top (e "Expr" @: c ';');
            prod "Expr"
              (plus (cls digits) @: star (one_of "+-" @: plus (cls digits)))
          ] };
    { r_name = "optional"; r_unit = "1.5;";
      r_grammar =
        g [ top (plus (cls digits) @: opt (c '.' @: plus (cls digits)) @: c ';') ] };
    { r_name = "node"; r_unit = "1;";
      r_grammar =
        g ~start:"S"
          [ top (e "Num" @: c ';');
            prod ~kind:Attr.Generic "Num" (node "Num" (plus (cls digits))) ]
    };
    { r_name = "memoized-ref"; r_unit = "1;";
      r_grammar =
        g ~start:"S"
          [ top (e "Val" @: c ';');
            prod ~memo:Attr.Memo_always "Val" (plus (cls digits)) ] };
    { r_name = "drop"; r_unit = "1;";
      r_grammar = g [ top (void (plus (cls digits)) @: c ';') ] };
  ]

let flat rows =
  match List.map snd rows with
  | [] -> true
  | b :: bs ->
      let mn = List.fold_left min b bs and mx = List.fold_left max b bs in
      mx <= (1.25 *. mn) +. 16384.

let measure_rung ?(config = Config.optimized) ?(optimize = fun g -> g)
    ?(sizes = [ 10_000; 40_000; 160_000 ]) rung =
  let g = optimize (voidify rung.r_grammar) in
  let eng = Engine.prepare_exn ~config g in
  List.map
    (fun size ->
      let corpus = tile rung.r_unit size in
      let bytes = bytes_per_parse eng (Rats_support.Input.of_string corpus) in
      (String.length corpus, bytes))
    sizes
