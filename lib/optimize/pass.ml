open Rats_peg

type stage = Repair | Optimize

type t = {
  name : string;
  doc : string;
  stage : stage;
  invalidates : Analysis_ctx.invalidation;
  run : Analysis_ctx.t -> Grammar.t -> Grammar.t;
}

let v ?(stage = Optimize) ?(invalidates = Analysis_ctx.Analyses) ~name ~doc run
    =
  { name; doc; stage; invalidates; run }

let transients =
  v ~name:"transients" ~invalidates:Analysis_ctx.Nothing
    ~doc:"unmemoize productions referenced at most once, except repetition items"
    (fun ctx g -> Passes.mark_transients ~ctx g)

let terminals =
  v ~name:"terminals" ~invalidates:Analysis_ctx.Nothing
    ~doc:"unmemoize lexical-level productions"
    (fun ctx g -> Passes.mark_terminals ~ctx g)

let inline =
  v ~name:"inline"
    ~doc:"inline small non-recursive productions, then prune"
    (fun ctx g -> Passes.inline_pass ~ctx g)

let fold =
  v ~name:"fold"
    ~doc:"merge structurally identical private productions"
    (fun _ g -> Passes.fold_duplicates g)

let factor =
  v ~name:"factor"
    ~doc:"factor common prefixes of adjacent alternatives"
    (fun _ g -> Passes.factor_prefixes g)

let prune =
  v ~name:"prune"
    ~doc:"drop productions unreachable from the start symbol"
    (fun ctx g -> Passes.prune ~ctx g)

let leftrec =
  v ~name:"leftrec" ~stage:Repair
    ~doc:"rewrite direct left recursion into iteration"
    (fun _ g -> Passes.eliminate_left_recursion g)
