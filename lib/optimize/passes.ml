open Rats_peg
module SSet = Analysis.StringSet

(* A pass invoked by the driver receives the driver's shared cache; a
   pass invoked directly (the historical entry points below) builds a
   private one. The physical-equality guard means a stale context is
   silently replaced rather than trusted. *)
let ctx_for ?ctx g =
  match ctx with
  | Some c when Analysis_ctx.grammar c == g -> c
  | _ -> Analysis_ctx.create g

(* --- pruning ------------------------------------------------------------ *)

let prune ?ctx g =
  let keep = Analysis_ctx.reachable (ctx_for ?ctx g) in
  Grammar.restrict g ~keep:(fun n -> SSet.mem n keep)

(* --- transient marking --------------------------------------------------- *)

let single_use c (p : Production.t) =
  p.attrs.Attr.memo = Attr.Memo_auto && Analysis_ctx.ref_count c p.name <= 1

(* The productions an expression is a whole call of, looking through
   value wrappers and choice alternatives: [Ref X], [@N(X)], [x:X],
   [(X / Y)]. *)
let rec whole_calls (e : Expr.t) acc =
  match e.it with
  | Expr.Ref n -> n :: acc
  | Expr.Node (_, b) | Expr.Bind (_, b) | Expr.Drop b | Expr.Token b ->
      whole_calls b acc
  | Expr.Alt alts ->
      List.fold_right (fun (a : Expr.alt) acc -> whole_calls a.body acc) alts acc
  | _ -> acc

(* The spine is what a warm reparse re-runs: the start production and,
   transitively, every production it calls that single-use demotion or a
   [transient] declaration leaves unmemoized. Items are the productions
   called as the whole body of a spine repetition, and the whole
   alternatives of an item's body. Witnesses are first-found, results in
   grammar order. *)
let reuse_points ?ctx g =
  let c = ctx_for ?ctx g in
  let unmemoized n =
    match Grammar.find g n with
    | Some p -> single_use c p || p.attrs.Attr.memo = Attr.Memo_never
    | None -> false
  in
  let items = Hashtbl.create 8 and spine = Hashtbl.create 32 in
  let rec add_item why n =
    if not (Hashtbl.mem items n) then
      match Grammar.find g n with
      | None -> ()
      | Some p ->
          Hashtbl.replace items n why;
          List.iter
            (add_item (Printf.sprintf "alternative of item %s" n))
            (whole_calls p.expr [])
  in
  let rec visit n =
    if not (Hashtbl.mem spine n) then (
      Hashtbl.replace spine n ();
      let p = Grammar.find_exn g n in
      Expr.fold
        (fun () (e : Expr.t) ->
          match e.it with
          | Expr.Star b | Expr.Plus b ->
              List.iter
                (add_item (Printf.sprintf "item of %s's repetition" n))
                (whole_calls b [])
          | Expr.Ref m -> if unmemoized m then visit m
          | _ -> ())
        () p.expr)
  in
  visit (Grammar.start g);
  List.filter_map
    (fun (p : Production.t) ->
      Option.map (fun why -> (p.name, why)) (Hashtbl.find_opt items p.name))
    (Grammar.productions g)

let mark_transients ?ctx g =
  let c = ctx_for ?ctx g in
  let items = reuse_points ~ctx:c g in
  Grammar.map
    (fun (p : Production.t) ->
      if single_use c p && not (List.mem_assoc p.name items) then
        Production.with_attrs p { p.attrs with Attr.memo = Attr.Memo_never }
      else p)
    g

(* --- terminal detection --------------------------------------------------- *)

let terminal_set ?ctx g = Analysis_ctx.terminals (ctx_for ?ctx g)

let mark_terminals ?ctx g =
  let terminals = terminal_set ?ctx g in
  Grammar.map
    (fun (p : Production.t) ->
      if p.attrs.Attr.memo = Attr.Memo_auto && SSet.mem p.name terminals then
        Production.with_attrs p { p.attrs with Attr.memo = Attr.Memo_never }
      else p)
    g

(* --- inlining ------------------------------------------------------------- *)

let expansion_of (p : Production.t) =
  match p.attrs.Attr.kind with
  | Attr.Plain -> p.expr
  | Attr.Generic -> Expr.node p.name p.expr
  | Attr.Text -> Expr.token p.expr
  | Attr.Void -> Expr.drop p.expr

let inline_pass ?(threshold = 12) ?ctx g =
  (* Only the first round can reuse the shared cache; every later round
     analyzes the grammar its own substitutions produced. *)
  let rec iterate ctx g rounds =
    if rounds = 0 then g
    else
      let a = Analysis_ctx.analysis (ctx_for ?ctx g) in
      let recursive (p : Production.t) =
        SSet.mem p.name (Analysis.reachable_from a (Expr.refs p.expr))
      in
      let inlinable = Hashtbl.create 16 in
      List.iter
        (fun (p : Production.t) ->
          let want =
            match p.attrs.Attr.inline with
            | Attr.Inline_never -> false
            | Attr.Inline_always -> true
            | Attr.Inline_auto -> Production.size p <= threshold
          in
          if
            want
            && (not (String.equal p.name (Grammar.start g)))
            && not (recursive p)
          then
            let ex = expansion_of p in
            (* A top-level Bind would leak its label into host sequences. *)
            match ex.Expr.it with
            | Expr.Bind _ -> ()
            | _ -> Hashtbl.replace inlinable p.name ex)
        (Grammar.productions g);
      if Hashtbl.length inlinable = 0 then g
      else
        let changed = ref false in
        let rec subst (e : Expr.t) =
          match e.it with
          | Expr.Ref n -> (
              match Hashtbl.find_opt inlinable n with
              | Some ex ->
                  changed := true;
                  ex
              | None -> e)
          | _ -> Expr.map_children subst e
        in
        let g' =
          Grammar.map
            (fun (p : Production.t) ->
              (* Do not rewrite the bodies of productions being inlined
                 away; they get pruned. *)
              if Hashtbl.mem inlinable p.name && not (Production.is_public p)
              then p
              else Production.with_expr p (subst p.expr))
            g
        in
        if !changed then iterate None (prune g') (rounds - 1) else g
  in
  iterate ctx g 5

(* --- duplicate folding ----------------------------------------------------- *)

let foldable (p : Production.t) =
  (not (Production.is_public p))
  &&
  match p.attrs.Attr.kind with
  | Attr.Plain | Attr.Text | Attr.Void -> true
  | Attr.Generic -> false

let fold_duplicates g =
  let rec iterate g rounds =
    if rounds = 0 then g
    else
      let canon = Hashtbl.create 32 in
      let redirect = Hashtbl.create 8 in
      List.iter
        (fun (p : Production.t) ->
          if foldable p && not (String.equal p.name (Grammar.start g)) then
            let key =
              Printf.sprintf "%s|%s|%s"
                (match p.attrs.Attr.kind with
                | Attr.Plain -> "p"
                | Attr.Text -> "t"
                | Attr.Void -> "v"
                | Attr.Generic -> assert false)
                (match p.attrs.Attr.memo with
                | Attr.Memo_auto -> "a"
                | Attr.Memo_always -> "m"
                | Attr.Memo_never -> "n")
                (Pretty.expr_to_string p.expr)
            in
            match Hashtbl.find_opt canon key with
            | Some first -> Hashtbl.replace redirect p.name first
            | None -> Hashtbl.replace canon key p.name)
        (Grammar.productions g);
      if Hashtbl.length redirect = 0 then g
      else
        let rename n = Option.value ~default:n (Hashtbl.find_opt redirect n) in
        let prods =
          List.filter_map
            (fun (p : Production.t) ->
              if Hashtbl.mem redirect p.name then None
              else
                Some (Production.with_expr p (Expr.rename_refs rename p.expr)))
            (Grammar.productions g)
        in
        iterate (Grammar.make_exn ~start:(Grammar.start g) prods) (rounds - 1)
  in
  iterate g 10

(* --- prefix factoring ------------------------------------------------------ *)

let head_tail (e : Expr.t) =
  match e.it with
  | Expr.Seq (hd :: tl) -> Some (hd, tl)
  | Expr.Seq [] | Expr.Empty -> None
  | _ -> Some (e, [])

let tail_expr = function
  | [] -> Expr.empty
  | [ x ] -> x
  | xs -> Expr.mk (Expr.Seq xs)

(* Factoring is only safe when re-running the head after backtracking is
   observably identical to keeping its first result, which holds for all
   deterministic PEG constructs; we conservatively skip heads that touch
   parser state, where the splice rewrite would still be correct but
   reasoning about Record replay is subtler than it is worth. *)
let head_ok hd = not (Expr.is_stateful hd)

let rec factor_expr (e : Expr.t) =
  let e = Expr.map_children factor_expr e in
  match e.it with
  | Expr.Alt alts ->
      let rec regroup = function
        | [] -> []
        | (a : Expr.alt) :: rest -> (
            match head_tail a.body with
            | Some (hd, tl) when head_ok hd ->
                let same, others =
                  let rec take acc = function
                    | (b : Expr.alt) :: more -> (
                        match head_tail b.body with
                        | Some (hd', tl') when Expr.equal hd hd' ->
                            take (tl' :: acc) more
                        | _ -> (List.rev acc, b :: more))
                    | [] -> (List.rev acc, [])
                  in
                  take [] rest
                in
                if same = [] then a :: regroup rest
                else
                  let tails = List.map tail_expr (tl :: same) in
                  let inner =
                    factor_expr
                      (Expr.mk
                         (Expr.Alt
                            (List.map
                               (fun body -> { Expr.label = None; body })
                               tails)))
                  in
                  let body = Expr.mk (Expr.Seq [ hd; Expr.splice inner ]) in
                  { Expr.label = None; body } :: regroup others
            | _ -> a :: regroup rest)
      in
      { e with it = Expr.Alt (regroup alts) }
  | _ -> e

let factor_prefixes g =
  Grammar.map
    (fun (p : Production.t) -> Production.with_expr p (factor_expr p.expr))
    g

(* --- direct left-recursion elimination -------------------------------------- *)

let eliminate_left_recursion g =
  Grammar.map
    (fun (p : Production.t) ->
      match p.expr.Expr.it with
      | Expr.Alt alts ->
          let split (a : Expr.alt) =
            match a.body.Expr.it with
            | Expr.Seq ({ Expr.it = Expr.Ref n; _ } :: rest)
              when String.equal n p.name ->
                Either.Left { a with body = tail_expr rest }
            | Expr.Ref n when String.equal n p.name ->
                (* P = P / ... : a vacuous self-alternative; dropping it
                   preserves the language (it could never make progress). *)
                Either.Left { a with body = Expr.empty }
            | _ -> Either.Right a
          in
          let tails, bases = List.partition_map split alts in
          if tails = [] || bases = [] then p
          else
            let tails =
              (* An empty tail would loop forever; the engine's progress
                 guard would stop it, but dropping it is cleaner. *)
              List.filter
                (fun (a : Expr.alt) -> a.body.Expr.it <> Expr.Empty)
                tails
            in
            let base = Expr.mk (Expr.Alt bases) in
            let expr =
              if tails = [] then base
              else Expr.seq [ base; Expr.star (Expr.mk (Expr.Alt tails)) ]
            in
            Production.with_expr p expr
      | _ -> p)
    g
