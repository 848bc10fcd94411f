open Rats_support
open Rats_peg
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type failure = { position : int; expected : string list }
type outcome = { result : (Value.t, failure) result; consumed : int }

(* --- farthest failure ---------------------------------------------------- *)

(* The farthest offset any expression failed at, with the expressions
   that failed there (newest first). *)
type trace = { mutable far : int; mutable failed : Expr.t list }

let new_trace () = { far = -1; failed = [] }

let note tr pos e =
  if pos > tr.far then (
    tr.far <- pos;
    tr.failed <- [ e ])
  else if pos = tr.far && not (List.memq e tr.failed) then
    tr.failed <- e :: tr.failed

let merge ~into tr = List.iter (note into tr.far) (List.rev tr.failed)

(* --- expected-label texts ------------------------------------------------- *)

let clip s = if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

(* What a failed expression expected. A predicate over a one-byte
   matcher is described the way the matcher is. *)
let rec label (e : Expr.t) =
  match e.it with
  | Expr.Fail msg -> msg
  | Any -> "any character"
  | Chr c -> Pretty.quote_char c
  | Str s -> Pretty.quote_string s
  | Cls set -> Charset.to_string set
  | And ({ it = Chr _ | Cls _ | Any; _ } as x) -> "&" ^ label x
  | And x -> "&" ^ clip (Pretty.expr_to_string x)
  | Not x -> "not " ^ clip (Pretty.expr_to_string x)
  | Member (table, true, _) -> "a name recorded in " ^ table
  | Member (table, false, _) -> "a name not recorded in " ^ table
  | _ -> invalid_arg "Reference.label"

(* The distinct labels of a trace, oldest first. *)
let expected tr =
  List.fold_left
    (fun acc e ->
      let l = label e in
      if List.mem l acc then acc else acc @ [ l ])
    [] (List.rev tr.failed)

(* --- static facts about productions --------------------------------------- *)

(* Fixpoint of [holds] over the productions, starting from [init]:
   [holds lookup p] decides [p] given the current guess for the others. *)
let fixpoint g ~init holds =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (p : Production.t) -> Hashtbl.replace tbl p.name (init p))
    (Grammar.productions g);
  let lookup n = Hashtbl.find tbl n in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        let now = holds lookup p in
        if now <> lookup p.name then (
          Hashtbl.replace tbl p.name now;
          changed := true))
      (Grammar.productions g)
  done;
  lookup

(* [void unit e]: every successful match of [e] yields [Value.Unit]. A
   repetition over such a body yields [Unit], not a list of units. *)
let rec void unit (e : Expr.t) =
  match e.it with
  | Expr.Empty | Fail _ | Chr _ | Str _ | And _ | Not _ | Drop _ -> true
  | Any | Cls _ | Token _ | Node _ | Bind _ -> false
  | Ref n -> unit n
  | Seq es -> List.for_all (void unit) es
  | Alt alts -> List.for_all (fun (a : Expr.alt) -> void unit a.body) alts
  | Star x | Plus x | Opt x | Splice x | Record (_, x) | Member (_, _, x) ->
      void unit x

(* Productions are assumed void until their body proves otherwise. *)
let void_productions g =
  fixpoint g
    ~init:(fun p -> p.attrs.Attr.kind = Attr.Void || p.attrs.kind = Attr.Plain)
    (fun unit p ->
      match p.attrs.Attr.kind with
      | Attr.Void -> true
      | Attr.Text | Attr.Generic -> false
      | Attr.Plain -> void unit p.expr)

(* A production is stateful when its body, or a production it reaches,
   reads or writes a state table; only stateless ones are memoized. *)
let stateful_productions g =
  fixpoint g ~init:(fun _ -> false) (fun stateful (p : Production.t) ->
      Expr.fold
        (fun acc (e : Expr.t) ->
          acc
          ||
          match e.it with
          | Expr.Record _ | Expr.Member _ -> true
          | Expr.Ref n -> stateful n
          | _ -> false)
        false p.expr)

(* --- the interpreter -------------------------------------------------------- *)

type st = {
  g : Grammar.t;
  text : string;
  void_prod : string -> bool;
  stateful : string -> bool;
  memo : (string * int, (int * Value.t) option * trace) Hashtbl.t;
  mutable tables : SSet.t SMap.t;
  mutable trace : trace;
  mutable quiet : int;  (* predicate nesting: failures there are not errors *)
}

let record st pos e = if st.quiet = 0 then note st.trace pos e
let span pos stop = Span.v ~start_:pos ~stop
let slice st pos stop = String.sub st.text pos (stop - pos)
let table st name = Option.value (SMap.find_opt name st.tables) ~default:SSet.empty

(* A labeled sequence component; unlabeled units contribute nothing. *)
let part label v = match (label, v) with None, Value.Unit -> [] | _ -> [ (label, v) ]

(* Run [f]; if it fails, put the state tables back as they were. *)
let undo st f =
  let saved = st.tables in
  match f () with
  | None ->
      st.tables <- saved;
      None
  | r -> r

(* Ordered choice: the first alternative that matches. *)
let first alts try_alt =
  List.fold_left
    (fun r a -> match r with Some _ -> r | None -> try_alt a)
    None alts

(* A sequence value from its components. *)
let packed pos = function
  | Some (stop, ps) -> Some (stop, Value.seq ~span:(span pos stop) ps)
  | None -> None

(* [eval st e pos] is [Some (stop, value)] or [None]; a failure leaves the
   state tables as they were on entry. *)
let rec eval st e pos = undo st (fun () -> eval_desc st e pos)

and eval_desc st (e : Expr.t) pos =
  let len = String.length st.text in
  let byte = if pos < len then Some st.text.[pos] else None in
  let fail at =
    record st at e;
    None
  in
  match e.it with
  | Expr.Empty -> Some (pos, Value.Unit)
  | Fail _ -> fail pos
  | Any -> (
      match byte with
      | Some c -> Some (pos + 1, Value.Chr c)
      | None -> fail pos)
  | Chr c ->
      if byte = Some c then Some (pos + 1, Value.Unit)
      else fail pos
  | Str s ->
      let n = String.length s in
      let rec matched i =
        if i < n && pos + i < len && st.text.[pos + i] = s.[i] then
          matched (i + 1)
        else i
      in
      let m = matched 0 in
      if m = n then Some (pos + n, Value.Unit)
      else fail (pos + m)
  | Cls set -> (
      match byte with
      | Some c when Charset.mem c set -> Some (pos + 1, Value.Chr c)
      | _ -> fail pos)
  | Ref name -> call st name pos
  | Seq es -> packed pos (elements st es pos)
  | Splice x -> packed pos (parts st x pos)
  | Alt alts -> first alts (fun (a : Expr.alt) -> eval st a.body pos)
  | Star x -> repeat st x pos []
  | Plus x -> (
      match eval st x pos with
      | None -> None
      | Some (p, v) -> repeat st x p [ v ])
  | Opt x -> (
      match eval st x pos with None -> Some (pos, Value.Unit) | r -> r)
  | And x -> (
      match predicate st x pos with
      | Some _ -> Some (pos, Value.Unit)
      | None -> fail pos)
  | Not x -> (
      match predicate st x pos with
      | Some _ -> fail pos
      | None -> Some (pos, Value.Unit))
  | Bind (label, x) ->
      map st x pos (fun _ v -> Value.seq [ (Some label, v) ])
  | Token x -> map st x pos (fun stop _ -> Value.Str (slice st pos stop))
  | Node (name, x) ->
      map st x pos (fun stop v ->
          Value.node ~span:(span pos stop) name (Value.components v))
  | Drop x -> map st x pos (fun _ _ -> Value.Unit)
  | Record (name, x) ->
      map st x pos (fun stop v ->
          let set = SSet.add (slice st pos stop) (table st name) in
          st.tables <- SMap.add name set st.tables;
          v)
  | Member (name, positive, x) -> (
      match eval st x pos with
      | Some (stop, _) as r
        when SSet.mem (slice st pos stop) (table st name) = positive ->
          r
      | Some _ -> fail pos
      | None -> None)

and map st x pos f =
  match eval st x pos with Some (stop, v) -> Some (stop, f stop v) | None -> None

(* Predicates look ahead without consuming and without touching state. *)
and predicate st x pos =
  let saved = st.tables in
  st.quiet <- st.quiet + 1;
  let r = eval st x pos in
  st.quiet <- st.quiet - 1;
  st.tables <- saved;
  r

(* Repetition stops at the first failing or non-advancing iteration. *)
and repeat st x pos acc =
  match eval st x pos with
  | Some (p, v) when p > pos -> repeat st x p (v :: acc)
  | _ ->
      let v =
        if void st.void_prod x then Value.Unit else Value.List (List.rev acc)
      in
      Some (pos, v)

(* The labeled components a sequence's elements contribute: a spliced
   element its own components, any other its value under its label. *)
and elements st es pos =
  List.fold_left
    (fun r (x : Expr.t) ->
      match r with
      | None -> None
      | Some (p, acc) -> (
          let contribution =
            match x.it with
            | Expr.Splice y -> parts st y p
            | _ -> component st x p
          in
          match contribution with
          | Some (p', ps) -> Some (p', acc @ ps)
          | None -> None))
    (Some (pos, []))
    es

(* The components of a spliced expression: those of a sequence's
   elements, of the matching alternative, or of the value itself. *)
and parts st (e : Expr.t) pos =
  undo st (fun () ->
      match e.it with
      | Expr.Seq es -> elements st es pos
      | Alt alts -> first alts (fun (a : Expr.alt) -> parts st a.body pos)
      | Empty -> Some (pos, [])
      | _ -> component st e pos)

and component st (x : Expr.t) pos =
  let label, x =
    match x.it with Expr.Bind (l, y) -> (Some l, y) | _ -> (None, x)
  in
  match eval st x pos with
  | Some (p, v) -> Some (p, part label v)
  | None -> None

(* A production call: the body's value shaped by the production's kind.
   Each evaluation keeps the failures it records to itself, so that a
   memo hit can replay them into the caller's trace. *)
and call st name pos =
  let p = Grammar.find_exn st.g name in
  let run () =
    let outer = st.trace and quiet = st.quiet in
    st.trace <- new_trace ();
    st.quiet <- 0;
    let r =
      match eval st p.expr pos with
      | None -> None
      | Some (stop, v) ->
          let v =
            match p.attrs.Attr.kind with
            | Attr.Plain -> v
            | Attr.Generic ->
                Value.node ~span:(span pos stop) name (Value.components v)
            | Attr.Text -> Value.Str (slice st pos stop)
            | Attr.Void -> Value.Unit
          in
          Some (stop, v)
    in
    let local = st.trace in
    st.trace <- outer;
    st.quiet <- quiet;
    (r, local)
  in
  let r, local =
    if st.stateful name then run ()
    else
      match Hashtbl.find_opt st.memo (name, pos) with
      | Some entry -> entry
      | None ->
          let entry = run () in
          Hashtbl.replace st.memo (name, pos) entry;
          entry
  in
  if st.quiet = 0 then merge ~into:st.trace local;
  r

let parse ?start ?(require_eof = true) g text =
  let st =
    {
      g;
      text;
      void_prod = void_productions g;
      stateful = stateful_productions g;
      memo = Hashtbl.create 256;
      tables = SMap.empty;
      trace = new_trace ();
      quiet = 0;
    }
  in
  let start = Option.value start ~default:(Grammar.start g) in
  let error position expected = Error { position; expected } in
  let tr = st.trace in
  match call st start 0 with
  | None ->
      { result = error (max tr.far 0) (expected tr); consumed = -1 }
  | Some (stop, v) ->
      let result =
        if (not require_eof) || stop = String.length text then Ok v
        else if tr.far > stop then error tr.far (expected tr)
        else error stop [ "end of input" ]
      in
      { result; consumed = stop }
