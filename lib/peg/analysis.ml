open Rats_support
module StringSet = Set.Make (String)

type nullability = Never_empty | May_be_empty

type t = {
  grammar : Grammar.t;
  nullable_tbl : (string, bool) Hashtbl.t;
  first_tbl : (string, Charset.t) Hashtbl.t;
  stateful_tbl : (string, bool) Hashtbl.t;
  unit_tbl : (string, bool) Hashtbl.t;
  mutable reachable_memo : StringSet.t option;
}

let grammar a = a.grammar

(* --- nullability ------------------------------------------------------- *)

let rec expr_nullable_env lookup (e : Expr.t) =
  match e.it with
  | Expr.Empty -> true
  | Fail _ -> false
  | Any | Chr _ | Str _ | Cls _ -> false
  | Ref n -> lookup n
  | Seq es -> List.for_all (expr_nullable_env lookup) es
  | Alt alts -> List.exists (fun a -> expr_nullable_env lookup a.Expr.body) alts
  | Star _ | Opt _ -> true
  | Plus x -> expr_nullable_env lookup x
  | And _ | Not _ -> true
  | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
  | Record (_, x) | Member (_, _, x) ->
      expr_nullable_env lookup x

let compute_nullable g =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) -> Hashtbl.replace tbl p.name false)
    (Grammar.productions g);
  let lookup n = try Hashtbl.find tbl n with Not_found -> false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        let v = expr_nullable_env lookup p.expr in
        if v && not (Hashtbl.find tbl p.name) then (
          Hashtbl.replace tbl p.name true;
          changed := true))
      (Grammar.productions g)
  done;
  tbl

(* --- FIRST sets -------------------------------------------------------- *)

let rec expr_first_env ~first ~nullable (e : Expr.t) =
  let recur = expr_first_env ~first ~nullable in
  match e.it with
  | Expr.Empty -> (Charset.empty, true)
  | Fail _ -> (Charset.empty, false)
  | Any -> (Charset.full, false)
  | Chr c -> (Charset.singleton c, false)
  | Str s -> (Charset.singleton s.[0], false)
  | Cls set -> (set, false)
  | Ref n -> (first n, nullable n)
  | Seq es ->
      let rec go set = function
        | [] -> (set, true)
        | e :: rest ->
            let s, eps = recur e in
            let set = Charset.union set s in
            if eps then go set rest else (set, false)
      in
      go Charset.empty es
  | Alt alts ->
      List.fold_left
        (fun (set, eps) a ->
          let s, e = recur a.Expr.body in
          (Charset.union set s, eps || e))
        (Charset.empty, false) alts
  | Star x ->
      let s, _ = recur x in
      (s, true)
  | Plus x -> recur x
  | Opt x ->
      let s, _ = recur x in
      (s, true)
  | And _ | Not _ -> (Charset.empty, true)
  | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
  | Record (_, x) | Member (_, _, x) ->
      recur x

let compute_first g nullable_tbl =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) -> Hashtbl.replace tbl p.name Charset.empty)
    (Grammar.productions g);
  let first n = try Hashtbl.find tbl n with Not_found -> Charset.empty in
  let nullable n = try Hashtbl.find nullable_tbl n with Not_found -> false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        let s, _ = expr_first_env ~first ~nullable p.expr in
        if not (Charset.equal s (first p.name)) then (
          Hashtbl.replace tbl p.name s;
          changed := true))
      (Grammar.productions g)
  done;
  tbl

(* --- statefulness ------------------------------------------------------ *)

let compute_stateful g =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) ->
      Hashtbl.replace tbl p.name (Expr.is_stateful p.expr))
    (Grammar.productions g);
  let lookup n = try Hashtbl.find tbl n with Not_found -> false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        if not (Hashtbl.find tbl p.name) then
          let v = List.exists lookup (Expr.refs p.expr) in
          if v then (
            Hashtbl.replace tbl p.name true;
            changed := true))
      (Grammar.productions g)
  done;
  tbl

(* --- construction ------------------------------------------------------ *)

(* Does an expression always produce [Value.Unit] on success? Computed as
   a greatest fixed point over productions: a [Plain] production whose
   body is unit-valued is itself unit-valued. *)
let rec expr_unit_env lookup (e : Expr.t) =
  match e.it with
  | Expr.Empty | Chr _ | Str _ | And _ | Not _ | Drop _ -> true
  | Fail _ -> true (* never succeeds, so its value is irrelevant *)
  | Any | Cls _ | Token _ | Node _ | Bind _ -> false
  | Ref n -> lookup n
  | Seq es -> List.for_all (expr_unit_env lookup) es
  | Alt alts -> List.for_all (fun x -> expr_unit_env lookup x.Expr.body) alts
  | Star x | Plus x | Opt x -> expr_unit_env lookup x
  | Splice x | Record (_, x) | Member (_, _, x) -> expr_unit_env lookup x

let compute_unit g =
  let tbl = Hashtbl.create 64 in
  (* Optimistic start: Plain and Void productions assumed unit. *)
  List.iter
    (fun (p : Production.t) ->
      let init =
        match p.attrs.Attr.kind with
        | Attr.Void -> true
        | Attr.Plain -> true
        | Attr.Text | Attr.Generic -> false
      in
      Hashtbl.replace tbl p.name init)
    (Grammar.productions g);
  let lookup n = try Hashtbl.find tbl n with Not_found -> false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        if Hashtbl.find tbl p.name && p.attrs.Attr.kind = Attr.Plain then
          if not (expr_unit_env lookup p.expr) then (
            Hashtbl.replace tbl p.name false;
            changed := true))
      (Grammar.productions g)
  done;
  tbl

let analyze g =
  let nullable_tbl = compute_nullable g in
  {
    grammar = g;
    nullable_tbl;
    first_tbl = compute_first g nullable_tbl;
    stateful_tbl = compute_stateful g;
    unit_tbl = compute_unit g;
    reachable_memo = None;
  }

let nullable a n = try Hashtbl.find a.nullable_tbl n with Not_found -> false

let expr_nullable a e =
  expr_nullable_env (fun n -> nullable a n) e

let first a n = try Hashtbl.find a.first_tbl n with Not_found -> Charset.empty

let expr_first a e =
  expr_first_env ~first:(first a) ~nullable:(nullable a) e

let stateful a n = try Hashtbl.find a.stateful_tbl n with Not_found -> false

let expr_yields_unit a e =
  expr_unit_env
    (fun n -> try Hashtbl.find a.unit_tbl n with Not_found -> false)
    e

(* A production's memo slot never needs a value when every successful
   full-mode run of its body leaves [Value.Unit] in the register: Void
   productions (their shape writes Unit unconditionally) and Plain
   productions whose body is statically unit. Text and Generic always
   produce a string or node. Lean (recognizer) hits never read the
   value slot, so only full-mode stores matter — and those run the
   full body, where [expr_yields_unit] is exact. *)
let stores_no_value a (p : Production.t) =
  match p.attrs.Attr.kind with
  | Attr.Void -> true
  | Attr.Plain -> expr_yields_unit a p.expr
  | Attr.Text | Attr.Generic -> false

(* Purely structural: calls (and the table operators, which manage
   value frames of their own) are conservatively excluded — a callee
   body may use the engine's value register as scratch space. *)
let rec preserves_value (e : Expr.t) =
  match e.it with
  | Expr.Empty | Expr.Fail _ | Expr.Any | Expr.Chr _ | Expr.Str _
  | Expr.Cls _ ->
      true
  | Expr.Seq es -> List.for_all preserves_value es
  | Expr.Alt alts ->
      List.for_all (fun (a : Expr.alt) -> preserves_value a.body) alts
  | Expr.Star x | Expr.Plus x | Expr.Opt x | Expr.And x | Expr.Not x
  | Expr.Token x | Expr.Drop x
  | Expr.Bind (_, x) ->
      preserves_value x
  | Expr.Ref _ | Expr.Node _ | Expr.Splice _ | Expr.Record _
  | Expr.Member _ ->
      false

(* --- reachability ------------------------------------------------------ *)

let reachable_from a roots =
  let seen = Hashtbl.create 64 in
  let rec visit n =
    if not (Hashtbl.mem seen n) then (
      Hashtbl.add seen n ();
      match Grammar.find a.grammar n with
      | None -> ()
      | Some p -> List.iter visit (Expr.refs p.expr))
  in
  List.iter visit roots;
  Hashtbl.fold (fun n () acc -> StringSet.add n acc) seen StringSet.empty

let reachable a =
  match a.reachable_memo with
  | Some s -> s
  | None ->
      let roots =
        Grammar.start a.grammar
        :: List.filter_map
             (fun (p : Production.t) ->
               if Production.is_public p then Some p.name else None)
             (Grammar.productions a.grammar)
      in
      let s = reachable_from a roots in
      a.reachable_memo <- Some s;
      s

let ref_count a name =
  let count_in (p : Production.t) =
    Expr.fold
      (fun acc e ->
        match e.Expr.it with
        | Expr.Ref n when String.equal n name -> acc + 1
        | _ -> acc)
      0 p.expr
  in
  let refs =
    List.fold_left
      (fun acc p -> acc + count_in p)
      0
      (Grammar.productions a.grammar)
  in
  if String.equal (Grammar.start a.grammar) name then refs + 1 else refs

(* --- left recursion ----------------------------------------------------- *)

(* Edges of the "invocable at the same input position" relation. Predicates
   parse at the current position, so their bodies contribute edges too. *)
let left_edges a (p : Production.t) =
  let acc = ref StringSet.empty in
  (* Returns true when e may succeed without consuming input, i.e. whatever
     follows e in a sequence is still at the start position. *)
  let rec go (e : Expr.t) =
    match e.it with
    | Expr.Empty -> true
    | Fail _ -> false
    | Any | Chr _ | Str _ | Cls _ -> false
    | Ref n ->
        acc := StringSet.add n !acc;
        nullable a n
    | Seq es ->
        let rec seq = function
          | [] -> true
          | e :: rest -> if go e then seq rest else false
        in
        seq es
    | Alt alts ->
        List.fold_left (fun eps alt -> go alt.Expr.body || eps) false alts
    | Star x ->
        ignore (go x);
        true
    | Plus x -> go x
    | Opt x ->
        ignore (go x);
        true
    | And x | Not x ->
        ignore (go x);
        true
    | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
    | Record (_, x) | Member (_, _, x) ->
        go x
  in
  ignore (go p.expr);
  !acc

let left_recursion a =
  let edges = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) -> Hashtbl.replace edges p.name (left_edges a p))
    (Grammar.productions a.grammar);
  let color = Hashtbl.create 64 in
  (* 1 = on stack, 2 = done *)
  let exception Cycle of string list in
  let rec visit path n =
    match Hashtbl.find_opt color n with
    | Some 2 -> ()
    | Some _ ->
        let cycle =
          let rec take = function
            | [] -> []
            | x :: rest -> if String.equal x n then [ x ] else x :: take rest
          in
          n :: List.rev (take path)
        in
        raise (Cycle cycle)
    | None ->
        Hashtbl.replace color n 1;
        (match Hashtbl.find_opt edges n with
        | None -> ()
        | Some succ -> StringSet.iter (visit (n :: path)) succ);
        Hashtbl.replace color n 2
  in
  try
    List.iter
      (fun (p : Production.t) -> visit [] p.name)
      (Grammar.productions a.grammar);
    None
  with Cycle c -> Some c

(* --- well-formedness ---------------------------------------------------- *)

let check a =
  let dangling = Grammar.check_closed a.grammar in
  let left_rec =
    match left_recursion a with
    | None -> []
    | Some cycle ->
        [
          Diagnostic.error
            ~notes:[ "cycle: " ^ String.concat " -> " cycle ]
            "grammar is left-recursive; packrat parsing would not terminate";
        ]
  in
  let vacuous =
    List.concat_map
      (fun (p : Production.t) ->
        Expr.fold
          (fun acc (e : Expr.t) ->
            match e.it with
            | Expr.Star x | Expr.Plus x when expr_nullable a x ->
                Diagnostic.errorf ~span:e.loc
                  "repetition over a nullable expression in production %S \
                   would loop forever"
                  p.name
                :: acc
            | _ -> acc)
          [] p.expr)
      (Grammar.productions a.grammar)
  in
  dangling @ left_rec @ vacuous

(* --- revisit analysis --------------------------------------------------- *)

(* A memo slot only pays off where one run can invoke the same
   production twice at the same offset. Two such invocations have a
   nearest common ancestor in the evaluation, and it is a backtrack
   point: the earlier invocation ran in one branch, the later one in a
   branch that started at or before its offset. The points examined:

   - a choice's alternatives, pairwise;
   - an alternative that failed, and what follows the choice after a
     later alternative succeeded (the failed one may have looked past
     the successful one's end);
   - a repetition's or option's failed last iteration, and what follows;
   - a nullable part of a sequence, and what follows it at its offset.

   "What follows" runs past the production's end into the continuation
   of every call site. A failed alternative that starts with a copy of
   the winner (calc's [Atom] picks the same [Number] or [Paren] body)
   ends that copy where the winner ended, so only what follows the copy
   meets the continuation. Predicate bodies are never memoized into (the
   engine suppresses their stores), so a point inside one cannot produce
   a hit and is not examined; their calls still count as later visits.

   A branch is summarized by the productions it may invoke ([rc]), those
   it may invoke at its entry offset outside predicates ([lc]), and those
   predicate bodies at its entry may invoke at any offset ([uc]). Every
   other call comes after the branch consumed the byte at its entry,
   which lies in its FIRST set; so two consuming branches with disjoint
   FIRST sets meet only through [lc] (or a later branch's [uc]). A branch
   that starts with a literal of two or more bytes meets one that cannot
   consume that literal nowhere: calc's [Pow] has consumed "**" before
   calling [Factor], which the '*' of [TermTail] never is.

   Shielding. A memoized production hit at an offset does not run its
   body again — but only where the same offset was certainly memoized
   before. The analysis proves that for a branch's *lead*: the later
   branch starts with call-free matchers and then calls a kept
   production, and the earlier branch starts with the structurally same
   matchers and calls the same production, so the later call hits
   (calc's Factor: [Pow] reaches [Sum] through [Atom] after '(' and
   spacing, exactly as [Paren] does). Elsewhere calls are traced through
   every production, memoized or not. Stateful productions never shield:
   their entries expire with the state version. Shielding depends on
   which productions keep their slots, so the kept set is grown until
   every production found revisitable under it is kept. *)

module SMap = Map.Make (String)

(* Sets of productions by grammar index: the examination unions and
   intersects call sets at every sequence part. *)
module Bits = struct
  type t = int array

  let create n = Array.make (max 1 ((n + Sys.int_size - 1) / Sys.int_size)) 0

  let add t i =
    let t = Array.copy t in
    t.(i / Sys.int_size) <- t.(i / Sys.int_size) lor (1 lsl (i mod Sys.int_size));
    t

  let mem t i = t.(i / Sys.int_size) land (1 lsl (i mod Sys.int_size)) <> 0
  (* Grammars under 63 productions take the one-word paths, which
     return an operand unchanged where they can. *)
  let union a b =
    if a == b then a
    else if Array.length a = 1 then
      let w = a.(0) lor b.(0) in
      if w = a.(0) then a else if w = b.(0) then b else [| w |]
    else Array.map2 ( lor ) a b

  let inter a b =
    if Array.length a = 1 then
      let w = a.(0) land b.(0) in
      if w = a.(0) then a else if w = b.(0) then b else [| w |]
    else Array.map2 ( land ) a b
  let complement t = Array.map lnot t
  let is_empty t = Array.for_all (fun w -> w = 0) t
  let equal (a : t) b = a = b

  let iter f t =
    Array.iteri
      (fun w word ->
        if word <> 0 then
          for b = 0 to Sys.int_size - 1 do
            if word land (1 lsl b) <> 0 then f ((w * Sys.int_size) + b)
          done)
      t
end

type revisit = { production : string; site : string; point : string }

type calls = {
  cfirst : Charset.t;
  ceps : bool;
  lc : Bits.t;
  uc : Bits.t;
  rc : Bits.t;
}

(* What follows the start production: nothing. *)
let no_calls zero =
  { cfirst = Charset.empty; ceps = false; lc = zero; uc = zero; rc = zero }

(* [a] then [b]: [b]'s entry calls are entry calls of the whole only when
   [a] may consume nothing. *)
let then_calls a b =
  if a.ceps then
    {
      cfirst = Charset.union a.cfirst b.cfirst;
      ceps = b.ceps;
      lc = Bits.union a.lc b.lc;
      uc = Bits.union a.uc b.uc;
      rc = Bits.union a.rc b.rc;
    }
  else { a with rc = Bits.union a.rc b.rc }

let join_calls a b =
  {
    cfirst = Charset.union a.cfirst b.cfirst;
    ceps = a.ceps || b.ceps;
    lc = Bits.union a.lc b.lc;
    uc = Bits.union a.uc b.uc;
    rc = Bits.union a.rc b.rc;
  }

let calls_equal a b =
  Charset.equal a.cfirst b.cfirst
  && a.ceps = b.ceps
  && Bits.equal a.lc b.lc
  && Bits.equal a.uc b.uc
  && Bits.equal a.rc b.rc

(* Invocations two branches starting at one offset may share. *)
let collide b1 b2 =
  if Charset.disjoint b1.cfirst b2.cfirst && (not b1.ceps) && not b2.ceps then
    Bits.union (Bits.inter b1.lc b2.lc) (Bits.inter b1.rc b2.uc)
  else Bits.inter b1.rc b2.rc

(* ... when the earlier one consumed nothing. *)
let collide_at_entry b1 b2 =
  Bits.union (Bits.inter b1.lc b2.lc) (Bits.inter b1.rc b2.uc)

(* Value wrappers do not change what is consumed; sequences flatten so
   prefixes compare item by item. *)
let rec consumption (e : Expr.t) =
  match e.it with
  | Expr.Bind (_, x) | Expr.Node (_, x) | Expr.Drop x | Expr.Token x
  | Expr.Splice x ->
      consumption x
  | Expr.Seq es -> List.concat_map consumption es
  | _ -> [ e ]

let rec same_consumption (a : Expr.t) (b : Expr.t) =
  match (consumption a, consumption b) with
  | [ x ], [ y ] -> (
      match (x.it, y.it) with
      | Expr.Alt xs, Expr.Alt ys ->
          List.length xs = List.length ys
          && List.for_all2
               (fun (p : Expr.alt) (q : Expr.alt) ->
                 same_consumption p.body q.body)
               xs ys
      | Star x, Star y | Plus x, Plus y | Opt x, Opt y | And x, And y
      | Not x, Not y ->
          same_consumption x y
      | _ -> Expr.equal x y)
  | xs, ys -> same_items xs ys

and same_items xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> same_consumption x y && same_items xs ys
  | _ -> false

(* A continuation as the matcher sees it: expressions still to run,
   the end of a production (what follows is its call sites'
   continuations), or the end of a predicate body. *)
type item = E of Expr.t | End of string | Stop

(* Summaries depend on an expression's structure only, and inlining
   leaves many structurally equal copies, so they share one entry. *)
module Shapes = Hashtbl.Make (struct
  type t = Expr.t

  let equal a b = a == b || Expr.equal a b
  let hash = Hashtbl.hash
end)

let items_of es tail = List.map (fun e -> E e) es @ tail

(* The literal bytes a branch must consume before anything else. *)
let head_literal items =
  let b = Buffer.create 8 in
  let rec go = function
    | E e :: more ->
        let rec lits = function
          | [] -> true
          | (x : Expr.t) :: xs -> (
              match x.it with
              | Expr.Chr c ->
                  Buffer.add_char b c;
                  lits xs
              | Expr.Str s ->
                  Buffer.add_string b s;
                  lits xs
              | _ -> false)
        in
        if lits (consumption e) then go more
    | _ -> ()
  in
  go items;
  Buffer.contents b

let revisitable a ~memoized =
  let g = a.grammar in
  let prods = Grammar.productions g in
  let body n =
    Option.map (fun (p : Production.t) -> p.expr) (Grammar.find g n)
  in
  let index = Hashtbl.create 64 in
  List.iteri
    (fun i (p : Production.t) -> Hashtbl.replace index p.name i)
    prods;
  let names = Array.of_list (List.map (fun (p : Production.t) -> p.name) prods) in
  let zero = Bits.create (Array.length names) in
  let singles = Hashtbl.create 64 in
  Hashtbl.iter (fun n i -> Hashtbl.replace singles n (Bits.add zero i)) index;
  let single n = Option.value (Hashtbl.find_opt singles n) ~default:zero in
  let bits_of set = StringSet.fold (fun n acc -> Bits.union acc (single n)) set zero in
  let find tbl n = Option.value (Hashtbl.find_opt tbl n) ~default:zero in
  (* Least fixed point of a per-production table. *)
  let fix tbl f =
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (p : Production.t) ->
          let v = f p.expr in
          if not (Bits.equal v (find tbl p.name)) then (
            Hashtbl.replace tbl p.name v;
            changed := true))
        prods
    done
  in
  (* Productions a production's body may invoke, directly or not. *)
  let refs_of e =
    List.fold_left (fun acc n -> Bits.union acc (single n)) zero (Expr.refs e)
  in
  let reach_tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) -> Hashtbl.replace reach_tbl p.name (refs_of p.expr))
    prods;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        let r = find reach_tbl p.name in
        let r' = ref r in
        Bits.iter (fun i -> r' := Bits.union !r' (find reach_tbl names.(i))) r;
        if not (Bits.equal !r' r) then (
          Hashtbl.replace reach_tbl p.name !r';
          changed := true))
      prods
  done;
  let reach_of n = Bits.union (single n) (find reach_tbl n) in
  let reach e =
    List.fold_left
      (fun acc n -> Bits.union acc (reach_of n))
      zero (Expr.refs e)
  in
  (* Entry calls: outside predicates ([lc]) and inside them ([uc]). *)
  let lc_tbl = Hashtbl.create 64 and uc_tbl = Hashtbl.create 64 in
  let rec entry ~pred (e : Expr.t) =
    match e.it with
    | Expr.Empty | Fail _ | Any | Chr _ | Str _ | Cls _ -> zero
    | Ref n ->
        if pred then find uc_tbl n else Bits.union (single n) (find lc_tbl n)
    | Seq es ->
        let rec go acc = function
          | [] -> acc
          | x :: rest ->
              let acc = Bits.union acc (entry ~pred x) in
              if expr_nullable a x then go acc rest else acc
        in
        go zero es
    | Alt alts ->
        List.fold_left
          (fun acc (alt : Expr.alt) ->
            Bits.union acc (entry ~pred alt.body))
          zero alts
    | Star x | Plus x | Opt x -> entry ~pred x
    | And x | Not x -> if pred then reach x else zero
    | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
    | Record (_, x) | Member (_, _, x) ->
        entry ~pred x
  in
  fix lc_tbl (entry ~pred:false);
  fix uc_tbl (entry ~pred:true);
  (* Branch summaries, by node, composed from the children's: the
     examination asks for the same sequence tails many times. *)
  let empty = { (no_calls zero) with ceps = true } in
  let consuming cfirst = { (no_calls zero) with cfirst } in
  let summaries = Shapes.create 256 in
  let rec summary (e : Expr.t) =
    match Shapes.find_opt summaries e with
    | Some s -> s
    | None ->
        let s =
          match e.it with
          | Expr.Empty -> empty
          | Fail _ -> no_calls zero
          | Any -> consuming Charset.full
          | Chr c -> consuming (Charset.singleton c)
          | Str s -> consuming (Charset.singleton s.[0])
          | Cls set -> consuming set
          | Ref n ->
              {
                cfirst = first a n;
                ceps = nullable a n;
                lc = Bits.union (single n) (find lc_tbl n);
                uc = find uc_tbl n;
                rc = reach_of n;
              }
          | Seq es ->
              List.fold_right (fun x acc -> then_calls (summary x) acc) es empty
          | Alt alts ->
              List.fold_left
                (fun acc (alt : Expr.alt) -> join_calls acc (summary alt.body))
                (no_calls zero) alts
          | Star x | Opt x -> { (summary x) with ceps = true }
          | Plus x -> summary x
          | And x | Not x ->
              let s = summary x in
              { empty with uc = s.rc; rc = s.rc }
          | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
          | Record (_, x) | Member (_, _, x) ->
              summary x
        in
        Shapes.replace summaries e s;
        s
  in
  let rest_calls rest tail =
    List.fold_right (fun e acc -> then_calls (summary e) acc) rest tail
  in
  let alone es = rest_calls es empty in
  (* Every call site outside predicate bodies, with what follows it in
     its production; and, as a fixed point, the join of what follows
     each production's end. *)
  let rec sites (e : Expr.t) rest rest_s ~on_ref =
    let walk x = sites x rest rest_s ~on_ref in
    match e.it with
    | Expr.Ref n -> on_ref n rest rest_s
    | Seq es ->
        let rec go = function
          | [] -> (rest, rest_s)
          | x :: more ->
              let rest, rest_s = go more in
              sites x rest rest_s ~on_ref;
              (x :: rest, then_calls (summary x) rest_s)
        in
        ignore (go es)
    | Alt alts -> List.iter (fun (alt : Expr.alt) -> walk alt.body) alts
    | Star x | Plus x ->
        let again = match e.it with Star _ -> e | _ -> Expr.star x in
        sites x (again :: rest) (then_calls (summary again) rest_s) ~on_ref
    | Opt x -> walk x
    | And _ | Not _ -> ()
    | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
    | Record (_, x) | Member (_, _, x) ->
        walk x
    | Empty | Fail _ | Any | Chr _ | Str _ | Cls _ -> ()
  in
  let callers = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) ->
      sites p.expr [] empty ~on_ref:(fun n rest rest_s ->
          Hashtbl.replace callers n
            ((rest, rest_s, p.name)
            :: Option.value (Hashtbl.find_opt callers n) ~default:[])))
    prods;
  let follow = Hashtbl.create 64 in
  let follow_of n =
    Option.value (Hashtbl.find_opt follow n) ~default:(no_calls zero)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun n sites ->
        let k =
          List.fold_left
            (fun acc (_, rest, caller) ->
              join_calls acc (then_calls rest (follow_of caller)))
            (follow_of n) sites
        in
        if not (calls_equal k (follow_of n)) then (
          Hashtbl.replace follow n k;
          changed := true))
      callers
  done;
  (* [consumes items w]: may running [items] consume the bytes [w] —
     inside predicate bodies too? Over-approximated; past a step budget
     the answer is yes. *)
  let consumes items w =
    let n = String.length w in
    let budget = ref 20_000 in
    let rec go items i ends =
      if i >= n then true
      else (
        decr budget;
        !budget < 0
        ||
        match items with
        | [] | Stop :: _ -> false
        | End p :: _ ->
            (not (List.mem (p, i) ends))
            && List.exists
                 (fun (rest, _, caller) ->
                   go (items_of rest [ End caller ]) i ((p, i) :: ends))
                 (Option.value (Hashtbl.find_opt callers p) ~default:[])
        | E e :: k -> (
            match e.it with
            | Expr.Empty -> go k i ends
            | Fail _ -> false
            | Any -> go k (i + 1) ends
            | Chr c -> w.[i] = c && go k (i + 1) ends
            | Str s ->
                let m = min (String.length s) (n - i) in
                String.equal (String.sub s 0 m) (String.sub w i m)
                && go k (i + m) ends
            | Cls set -> Charset.mem w.[i] set && go k (i + 1) ends
            | Ref r -> (
                match body r with
                | Some b -> go (E b :: k) i ends
                | None -> false)
            | Seq es -> go (items_of es k) i ends
            | Alt alts ->
                List.exists (fun (alt : Expr.alt) -> go (E alt.body :: k) i ends) alts
            | Star x -> go k i ends || go (E x :: E e :: k) i ends
            | Plus x -> go (E x :: E (Expr.star x) :: k) i ends
            | Opt x -> go (E x :: k) i ends || go k i ends
            | And x | Not x -> go [ E x; Stop ] i ends || go k i ends
            | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
            | Record (_, x) | Member (_, _, x) ->
                go (E x :: k) i ends))
    in
    go items 0 []
  in
  (* Branches that start at one offset and may share an invocation. *)
  let meets items1 items2 s1 s2 =
    let shared = collide s1 s2 in
    let apart w other =
      String.length w >= 2 && not (consumes (Lazy.force other) w)
    in
    if
      Bits.is_empty shared
      || apart (head_literal (Lazy.force items1)) items2
      || apart (head_literal (Lazy.force items2)) items1
    then zero
    else shared
  in
  (* [mirrors x y]: wherever [y] succeeds, [x] run at the same offset
     succeeds with the same extent — it is [y], or picks a copy of [y]
     after alternatives that cannot start like [y]. *)
  let rec mirrors depth (x : Expr.t) (y : Expr.t) =
    depth < 4
    && (same_consumption x y
       ||
       match x.it with
       | Expr.Ref n -> (
           match body n with Some b -> mirrors (depth + 1) b y | None -> false)
       | Bind (_, x) | Node (_, x) | Drop x | Token x | Splice x ->
           mirrors depth x y
       | Alt alts ->
           let fy, ey = expr_first a y in
           let rec go = function
             | [] -> false
             | (alt : Expr.alt) :: rest ->
                 mirrors (depth + 1) alt.body y
                 ||
                 let f, e = expr_first a alt.body in
                 (not e) && (not ey) && Charset.disjoint f fy && go rest
           in
           go alts
       | _ -> false)
  in
  let rec split_head (e : Expr.t) =
    match e.it with
    | Expr.Bind (_, x) | Node (_, x) | Drop x | Token x | Splice x ->
        split_head x
    | Seq (x :: rest) -> (x, rest)
    | _ -> (e, [])
  in
  let alt_name i (alt : Expr.alt) =
    match alt.label with
    | Some l -> "<" ^ l ^ ">"
    | None -> "#" ^ string_of_int (i + 1)
  in
  let memo_bits = bits_of memoized in
  (* The kept productions an examination found certain hits on. A later
     examination under a kept set that still holds them finds the same
     hits, and elsewhere only shields more: it keeps no production the
     earlier one did not. *)
  let used_shields = ref zero in
  let examine kept =
    let shields n =
      match Hashtbl.find_opt index n with
      | Some i -> Bits.mem kept i && not (stateful a n)
      | None -> false
    in
    let pure x = Expr.refs x = [] && not (Expr.is_stateful x) in
    (* [Some (items, q)]: running the expression certainly starts by
       matching the call-free [items] and then calls the kept [q]. *)
    let rec lead visiting (e : Expr.t) =
      match e.it with
      | Expr.Ref n when shields n -> Some ([], n)
      | Ref n -> (
          if List.mem n visiting then None
          else
            match body n with
            | Some b -> lead (n :: visiting) b
            | None -> None)
      | Seq es -> lead_seq visiting [] es
      | Alt ({ body = first; _ } :: _) -> (
          (* the first alternative is tried — dispatch cannot skip it —
             when its lead consumes before calling *)
          match lead visiting first with
          | Some (items, q) when not (expr_nullable a (Expr.seq items)) ->
              Some (items, q)
          | _ -> None)
      | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x ->
          lead visiting x
      | _ -> None
    and lead_seq visiting acc = function
      | [] -> None
      | x :: more ->
          if pure x then lead_seq visiting (x :: acc) more
          else
            Option.map
              (fun (items, q) -> (List.rev_append acc items, q))
              (lead visiting x)
    in
    (* The summary of an expression whose lead call is a certain hit:
       the call is made, its body does not run. Follows [lead]. *)
    let rec shielded (e : Expr.t) =
      match e.it with
      | Expr.Ref n when shields n ->
          let s = single n in
          { (summary e) with lc = s; uc = zero; rc = s }
      | Ref n -> (
          match body n with
          | Some b ->
              let s = shielded b in
              let n = single n in
              { s with lc = Bits.union n s.lc; rc = Bits.union n s.rc }
          | None -> summary e)
      | Seq es -> shielded_seq es empty
      | Alt (first :: others) ->
          List.fold_left
            (fun acc (alt : Expr.alt) -> join_calls acc (summary alt.body))
            (shielded first.body) others
      | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x -> shielded x
      | _ -> summary e
    and shielded_seq es tail =
      match es with
      | [] -> tail
      | x :: more ->
          if pure x then then_calls (summary x) (shielded_seq more tail)
          else then_calls (shielded x) (rest_calls more tail)
    in
    (* What an earlier branch [b1s] and a later one — [rest], summarized
       by [rest_s], then [tail] — starting at one offset may share,
       according to [meet]. Shielding only drops calls from the later
       branch's summary, so it is looked for only when the unshielded
       branches share something. *)
    let pair s1 b1s rest rest_s tail meet =
      let shared = meet s1 rest_s in
      if Bits.is_empty shared then shared
      else
        match (lead_seq [] [] b1s, lead_seq [] [] rest) with
        | Some (items1, q1), Some (items2, q2)
          when String.equal q1 q2
               && same_items
                    (List.concat_map consumption items1)
                    (List.concat_map consumption items2) ->
            used_shields := Bits.union !used_shields (single q1);
            meet s1 (shielded_seq rest tail)
        | _ -> shared
    in
    let found = ref SMap.empty and unfound = ref memo_bits in
    let flag site point set =
      Bits.iter
        (fun i ->
          let n = names.(i) in
          found := SMap.add n { production = n; site; point = point () } !found;
          unfound := Bits.inter !unfound (Bits.complement (single n)))
        (Bits.inter set !unfound);
      (* every slot is kept: nothing left to examine *)
      if Bits.is_empty !unfound then raise_notrace Exit
    in
    (* [rest] follows [e] up to the production's end, [rest_s] sums it up
       with what follows the production. *)
    let points site (e : Expr.t) =
      let tail = follow_of site in
      let rec points (e : Expr.t) rest rest_s =
        let after = lazy (items_of rest [ End site ]) in
        (* an earlier branch [x] run at this offset, then [rest] *)
        let against_rest point x sx =
          flag site point
            (pair sx [ x ] rest rest_s tail (meets (lazy [ E x; Stop ]) after))
        in
        match e.it with
        | Expr.Seq es ->
            let rec go = function
              | [] -> (rest, rest_s)
              | x :: more ->
                  let rest, rest_s = go more in
                  let sx = summary x in
                  if sx.ceps then
                    flag site
                      (fun () -> "a nullable sequence part and what follows")
                      (pair sx [ x ] rest rest_s tail collide_at_entry);
                  points x rest rest_s;
                  (x :: rest, then_calls sx rest_s)
            in
            ignore (go es)
        | Alt alts ->
            let arr = Array.of_list alts in
            let sums = Array.map (fun (alt : Expr.alt) -> summary alt.body) arr in
            Array.iteri
              (fun k (ak : Expr.alt) ->
                let sk = sums.(k) in
                for i = 0 to k - 1 do
                  let ai = arr.(i) and si = sums.(i) in
                  flag site
                    (fun () ->
                      Printf.sprintf "alternatives %s / %s" (alt_name i ai)
                        (alt_name k ak))
                    (pair si [ ai.body ] [ ak.body ] sk empty
                       (meets
                          (lazy [ E ai.body; Stop ])
                          (lazy [ E ak.body; Stop ])));
                  let point () =
                    Printf.sprintf
                      "alternative %s failing before %s, and what follows"
                      (alt_name i ai) (alt_name k ak)
                  in
                  (* [ak] matched nothing: the continuation starts where
                     [ai] did *)
                  if sk.ceps then against_rest point ai.body si;
                  if si.ceps || not (Charset.disjoint si.cfirst sk.cfirst) then
                    match split_head ai.body with
                    | x, r when mirrors 0 x ak.body ->
                        (* [x] ends where [ak] did: the failed alternative's
                           calls past that end are [r]'s *)
                        flag site point
                          (pair (alone r) r rest rest_s tail
                             (meets (lazy (items_of r [ Stop ])) after))
                    | _ -> flag site point (Bits.inter si.rc rest_s.rc)
                done;
                points ak.body rest rest_s)
              arr
        | Star x | Plus x ->
            against_rest
              (fun () -> "a repetition's last iteration and what follows")
              x (summary x);
            let again = match e.it with Star _ -> e | _ -> Expr.star x in
            points x (again :: rest) (then_calls (summary again) rest_s)
        | Opt x ->
            against_rest (fun () -> "an option and what follows") x (summary x);
            points x rest rest_s
        | And _ | Not _ -> ()
        | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
        | Record (_, x) | Member (_, _, x) ->
            points x rest rest_s
        | Ref _ | Empty | Fail _ | Any | Chr _ | Str _ | Cls _ -> ()
      in
      points e [] tail
    in
    (try
       List.iter
         (fun (p : Production.t) ->
           points p.name p.expr)
         prods
     with Exit -> ());
    !found
  in
  let keys m = SMap.fold (fun n _ acc -> Bits.union acc (single n)) m zero in
  let rec grow kept witnesses =
    used_shields := zero;
    let found = examine kept in
    let witnesses = SMap.union (fun _ w _ -> Some w) witnesses found in
    let kept' = Bits.union kept (keys found) in
    if Bits.equal kept kept' then witnesses else grow kept' witnesses
  in
  let first = examine memo_bits in
  let kept = keys first in
  let witnesses =
    if Bits.is_empty (Bits.inter !used_shields (Bits.complement kept)) then first
    else grow kept first
  in
  List.filter_map
    (fun (p : Production.t) -> SMap.find_opt p.name witnesses)
    prods
