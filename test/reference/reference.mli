(** A direct PEG interpreter: the oracle the engine is checked against.

    It transliterates the parsing-expression semantics of Ford's packrat
    paper over {!Rats_peg.Grammar.t}, with the value discipline of
    {!Rats_peg.Value} and {!Rats_peg.Attr.kind} and the farthest-failure
    error heuristic, and nothing else: no optimization, no budgets, no
    statistics, no observation. Memoization is a plain hash table keyed
    by (production, offset) over stateless productions only, and it is
    transparent — a hit replays the failures its first evaluation
    recorded, so the reported error is the one an unmemoized parse would
    give.

    Grammars must be well formed (closed, no left recursion, no vacuous
    repetition); the interpreter does not check. *)

open Rats_peg

type failure = {
  position : int;  (** farthest failure offset, as in [Parse_error] *)
  expected : string list;
      (** every distinct description recorded at [position], oldest
          first, uncapped *)
}

type outcome = {
  result : (Value.t, failure) result;
  consumed : int;
      (** offset reached by the start production, [-1] when it failed *)
}

val parse : ?start:string -> ?require_eof:bool -> Grammar.t -> string -> outcome
(** [parse g input] parses [input] from the start production of [g]
    ([start] overrides it). With [require_eof] (default [true]) the start
    production must consume the whole input. *)
