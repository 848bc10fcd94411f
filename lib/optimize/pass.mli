(** A named grammar transformation, as the optimizer driver sees it.

    A pass is a documented record: a [run] function over the driver's
    shared {!Rats_peg.Analysis_ctx.t}, plus the metadata the driver
    needs to schedule and instrument it — which cached analyses the
    transformation invalidates, and whether it runs before or after the
    well-formedness gate. The canonical ordered registry the optimizer,
    the E3 ladder and the [rml] CLI all share lives in {!Pipeline}. *)

open Rats_peg

type stage =
  | Repair
      (** Runs {e before} the well-formedness gate: transformations such
          as left-recursion elimination that make an otherwise-rejected
          grammar parseable. *)
  | Optimize
      (** Runs after the gate on a grammar already known well-formed. *)

type t = {
  name : string;  (** registry key, e.g. ["inline"]; unique, CLI-facing *)
  doc : string;  (** one-line description for [rml passes] *)
  stage : stage;
  invalidates : Analysis_ctx.invalidation;
      (** what the driver must drop from its cache after this pass *)
  run : Analysis_ctx.t -> Grammar.t -> Grammar.t;
}

val v :
  ?stage:stage ->
  ?invalidates:Analysis_ctx.invalidation ->
  name:string ->
  doc:string ->
  (Analysis_ctx.t -> Grammar.t -> Grammar.t) ->
  t
(** Defaults: [Optimize] stage, [Analyses] invalidation (the safe,
    recompute-everything assumption). *)

(** {1 The standard passes}

    One per optimization of the paper's ladder, wrapping {!Passes}. *)

val transients : t
(** Unmemoize single-reference productions. Attribute-only. *)

val terminals : t
(** Unmemoize lexical-level productions. Attribute-only. *)

val inline : t
(** Cost-based inlining of small non-recursive productions, at
    {!Passes.inline_pass}'s default threshold. *)

val fold : t
(** Merge structurally identical private productions. *)

val factor : t
(** Factor common prefixes out of adjacent choice alternatives. *)

val prune : t
(** Drop productions unreachable from the start/public set. *)

val leftrec : t
(** Opt-in {!stage}-[Repair] pass: rewrite direct left recursion into
    iteration so the gate's left-recursion check passes. Not part of the
    default pipeline — Rats! treats it as an explicit transformation,
    not an optimization. *)
