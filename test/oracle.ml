(* Engine ≡ reference: the observation both sides are compared on.

   An observation is the verdict — the accepted value, or the farthest
   failure position with the expected set — plus the offset the start
   production reached. Expected sets are compared as sets, the
   reference's capped by [Expected]'s documented rule (the
   [Expected.max_entries] lexicographically smallest), and only when
   the engine runs without FIRST-set dispatch, which may drop doomed
   alternatives' entries by design. A run that tripped a resource budget
   has no reference counterpart and is not compared. *)

open Rats

type t = {
  verdict : (Value.t, int * string list) result;
  consumed : int option;  (* [None] where the caller saw no offset *)
}

let cap descs =
  List.filteri (fun i _ -> i < Expected.max_entries) (List.sort_uniq compare descs)

let of_engine ~descs ?consumed result =
  let verdict =
    match result with
    | Ok v -> Ok v
    | Error e -> Error (e.Parse_error.position, descs (List.sort_uniq compare e.expected))
  in
  { verdict; consumed }

let of_reference ~descs (o : Reference.outcome) =
  let verdict =
    match o.result with
    | Ok v -> Ok v
    | Error f -> Error (f.position, descs (cap f.expected))
  in
  { verdict; consumed = Some o.consumed }

let show t =
  Printf.sprintf "%s (consumed %d)"
    (match t.verdict with
    | Ok v -> "accept " ^ Value.to_string v
    | Error (pos, descs) ->
        Printf.sprintf "reject @%d [%s]" pos (String.concat "; " descs))
    (Option.value t.consumed ~default:(-1))

let equal a b =
  (match (a.consumed, b.consumed) with Some x, Some y -> x = y | _ -> true)
  &&
  match (a.verdict, b.verdict) with
  | Ok va, Ok vb -> Value.equal va vb
  | Error ea, Error eb -> ea = eb
  | Ok _, Error _ | Error _, Ok _ -> false

let tripped = function
  | Error e -> Parse_error.exhausted_which e <> None
  | Ok _ -> false

(* [result_mismatch ~config g input r] is [None] when the engine result
   [r] of [input], run under [config], agrees with the reference's parse
   of [input] over [g]; otherwise a report of both sides. [descs]
   normalizes both expected sets before the comparison. *)
let result_mismatch ?start ?(require_eof = true) ?(descs = Fun.id) ?consumed
    ~config g input result =
  if tripped result then None
  else
    let descs = if config.Config.dispatch then fun _ -> [] else descs in
    let e = of_engine ~descs ?consumed result
    and r = of_reference ~descs (Reference.parse ?start ~require_eof g input) in
    if equal e r then None
    else
      Some
        (Printf.sprintf "on %S (%s)\n engine:    %s\n reference: %s" input
           (Config.describe config) (show e) (show r))

(* The same for a whole outcome, consumed offset included. *)
let mismatch ?start ?require_eof ?descs ~config g input (o : Engine.outcome) =
  result_mismatch ?start ?require_eof ?descs ~consumed:o.Engine.consumed
    ~config g input o.Engine.result

(* For QCheck properties: [true], or a failure carrying the report. *)
let holds = function
  | None -> true
  | Some report -> QCheck.Test.fail_report report

let agrees ?start ?require_eof ?descs ~config g input o =
  holds (mismatch ?start ?require_eof ?descs ~config g input o)

(* A grammar the engine refused must be one the analysis rejects; the
   reference is only defined on well-formed grammars. *)
let refused g = Analysis.check (Analysis.analyze g) <> []
