(** Per-construct allocation bisection for lean (recognizer) mode.

    PR 7 proved both engines' core loops allocation-free on hand-built
    all-Void grammars; this probe closes the loop on {e voidified} real
    grammars by measuring steady-state allocation ({!words}) deltas —
    with warmed scratch pools — for a ladder of one-construct-at-a-time
    grammars. Each rung isolates one [Expr] form in the position real
    grammars use it (token captures, ranges yielding bytes, bindings
    under predicates, …), so a linear-in-input allocation pins the
    leaking construct directly.

    The test suite ([test/test_alloc.ml]) holds every rung — and the
    voidified real grammars — to the flatness bound;
    the E9 bench rows measure the same claim on the real grammars
    through [Batch.recognizer_erase] with timing attached. *)

open Rats_peg
open Rats_runtime

val voidify : Grammar.t -> Grammar.t
(** Erase every production's kind to [Attr.Void] — the batch runner's
    recognizer-rung kind-erasure. Kinds only shape semantic values, so
    verdicts, consumed bytes and expected sets are unchanged. *)

val tile : string -> int -> string
(** [tile unit target] repeats [unit] until at least [target] bytes. *)

val words : unit -> float
(** Words allocated so far: minor + major − promoted. A delta counts
    every word once across any number of collections, which
    [Gc.allocated_bytes] does not on OCaml 5.1. *)

val word_bytes : float

val bytes_per_parse :
  ?warmups:int -> ?runs:int -> Engine.t -> Rats_support.Input.t -> float
(** Steady-state allocation of one parse: run [warmups] times to warm
    the engine-owned scratch pools (and fault on a parse error), then
    average the {!words} delta over [runs] further parses, in bytes.
    Parsing is deterministic, so the delta is exact, not sampled. *)

type rung = {
  r_name : string;  (** construct under test, e.g. ["token-capture"] *)
  r_grammar : Grammar.t;  (** minimal grammar exercising it *)
  r_unit : string;  (** input tile accepted by the grammar *)
}

val ladder : unit -> rung list
(** The construct ladder: charclasses, ranges yielding bytes, literals,
    token captures, seq/alt/star, bindings (plain and under
    predicates), node construction, optionals, memoized references.
    Every rung's grammar accepts [tile r_unit n] for any [n]. *)

val flat : (int * float) list -> bool
(** [flat rows] holds when allocation is size-independent across the
    [(input_bytes, bytes_per_parse)] rows: max <= 1.25 * min + 16 KiB —
    the E9 recognizer-alloc bound. *)

val measure_rung :
  ?config:Config.t ->
  ?optimize:(Grammar.t -> Grammar.t) ->
  ?sizes:int list ->
  rung ->
  (int * float) list
(** Voidify the rung's grammar, optionally optimize it, prepare it
    under [config] (default {!Config.optimized}) and measure
    steady-state bytes/parse at each input size (default
    [10_000; 40_000; 160_000]). *)
