open Rats_peg
module Config = Rats_runtime.Config

type rung = {
  index : int;
  name : string;
  detail : string;
  grammar : Grammar.t;
  config : Config.t;
}

type step = {
  label : string;
  detail : string;
  passes : Pass.t list;
  config : Config.t -> Config.t;
  native_repetitions : bool;
}

let step ?(passes = []) ?(config = Fun.id) ?(native_repetitions = false) label
    detail =
  { label; detail; passes; config; native_repetitions }

(* THE canonical registry. Everything downstream — [optimize], the E3
   [ladder], [rml passes], the bench harness — is a prefix or a
   projection of this one ordered list; do not spell pass chains out
   anywhere else. *)
let registry () =
  [
    step "baseline" "desugared repetitions, hashtable memo of every production";
    step "+chunks" "memoize into per-position chunks instead of a hashtable"
      ~config:(fun c -> { c with Config.memo = Config.Chunked });
    step "+transients"
      "single-reference productions lose their memo slots, except the \
       repetition items a session reparse steps over; store-less runs \
       also skip the slots the revisit analysis finds no second visit for"
      ~passes:[ Pass.transients ]
      ~config:(fun c -> { c with Config.honor_transient = true });
    step "+terminals" "lexical-level productions lose their memo slots"
      ~passes:[ Pass.terminals ];
    step "+repetitions" "repetitions run as loops instead of helper productions"
      ~native_repetitions:true;
    step "+inlining" "cost-based inlining of small non-recursive productions"
      ~passes:[ Pass.inline ];
    step "+folding" "structurally equal productions merged"
      ~passes:[ Pass.fold ];
    step "+factoring" "common prefixes of adjacent alternatives factored"
      ~passes:[ Pass.factor; Pass.prune ];
    step "+dispatch" "choice alternatives filtered by FIRST sets"
      ~config:(fun c -> { c with Config.dispatch = true });
    step "+lean-values"
      "no semantic values in predicates, tokens, void productions"
      ~config:(fun c -> { c with Config.lean_values = true });
  ]

let passes () = List.concat_map (fun s -> s.passes) (registry ())

let optional_passes = [ Pass.leftrec ]

let all_passes () = passes () @ optional_passes

let find_pass name =
  List.find_opt (fun (p : Pass.t) -> String.equal p.name name) (all_passes ())

let optimize g = (Driver.run_exn ~gate:false (passes ()) g).Driver.grammar

let ladder g =
  let steps = registry () in
  let desugared = lazy (Desugar.expand_repetitions g) in
  let rec build index prefix config native acc = function
    | [] -> List.rev acc
    | s :: rest ->
        let native = native || s.native_repetitions in
        let prefix = prefix @ s.passes in
        let config = s.config config in
        let source = if native then g else Lazy.force desugared in
        let grammar = (Driver.run_exn ~gate:false prefix source).Driver.grammar in
        let rung = { index; name = s.label; detail = s.detail; grammar; config } in
        build (index + 1) prefix config native (rung :: acc) rest
  in
  build 0 [] Config.packrat false [] steps
