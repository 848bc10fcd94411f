(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (shape, not absolute numbers — see DESIGN.md and
   EXPERIMENTS.md).

   Usage:
     dune exec bench/main.exe              run every experiment
     dune exec bench/main.exe e2 e3        run selected experiments
     dune exec bench/main.exe -- --quick   smaller corpora
     dune exec bench/main.exe -- --micro   add a bechamel micro-benchmark
     dune exec bench/main.exe -- --json F  also write results to F as JSON

   Experiments:
     e1  grammar / module composition statistics     (Table 1 analogue)
     e2  parser performance across implementations   (Table 2 analogue)
     e3  cumulative impact of the optimizations      (Table 3 analogue)
     e4  scalability, adversarial inputs, governor    (Figure analogue)
     e5  heap utilization: memo entries and values   (Figure analogue)
     e6  modular extension experiment                (motivating §2)
     e7  farthest-failure error quality              (supplementary)
     e8  observability overhead and profile          (supplementary)
     e9  zero-copy input: mmap vs copy               (supplementary)
     e10 batch pipeline and degradation ladder       (supplementary) *)

open Rats
module Alloc_probe = Rats_probe.Alloc_probe

let quick = ref false
let micro = ref false
let json_path : string option ref = ref None

(* --- machine-readable results -------------------------------------------- *)

(* Rows accumulate as preformatted JSON objects and are written in one
   array at exit when --json FILE was given. Values are either numbers
   or strings; nothing here needs a JSON library. *)
let json_rows : string list ref = ref []

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = Printf.sprintf "\"%s\"" (json_escape s)
let jint i = string_of_int i
let jfloat f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let record ~experiment ~series fields =
  if !json_path <> None then (
    let fields =
      ("experiment", jstr experiment) :: ("series", jstr series) :: fields
    in
    json_rows :=
      Printf.sprintf "{%s}"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (jstr k) v) fields))
      :: !json_rows)

let write_json () =
  match !json_path with
  | None -> ()
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "[\n  ";
          output_string oc (String.concat ",\n  " (List.rev !json_rows));
          output_string oc "\n]\n");
      Printf.printf "\nwrote %d records to %s\n" (List.length !json_rows) path

(* --- timing -------------------------------------------------------------- *)

(* Size the minor heap to the working set of one parse (a few MW): each
   iteration's value tree then dies young instead of being promoted and
   collected by the major GC. With the 256 KW default, every contender
   pays ~2x its parse time in promotion work for values it immediately
   drops, which measures the allocator more than the parser. *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 }

let now () = Unix.gettimeofday ()

(* Best-of-N wall time, with one warmup run. The compaction gives every
   contender a clean heap: without it, later rows pay major-GC slices
   for garbage the earlier rows left behind. *)
let time_best ?(repeats = 5) f =
  ignore (f ());
  Gc.compact ();
  let best = ref infinity in
  for _ = 1 to repeats do
    Gc.minor ();
    let t0 = now () in
    ignore (f ());
    let dt = now () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* Full measurement of one workload: best and median wall time over N
   runs plus the GC-level allocation profile of a single steady-state
   run. The trajectory gate (bench/check_regression.ml) compares the
   medians, reusing E8's reasoning: a median over interleaved runs
   shrugs off the one iteration that ran under a sibling process, where
   a best-of flickers. Allocation is measured once, after the warmup
   run: parsing is deterministic, so [Alloc_probe.words] deltas are
   exact and need no repetition to be stable — they are the
   machine-independent half of every BENCH_*.json row. *)
type meas = {
  m_best : float;  (* seconds *)
  m_median : float;  (* seconds *)
  m_alloc_bytes : float;  (* bytes, one run *)
}

let alloc_bytes f =
  let w0 = Alloc_probe.words () in
  ignore (f ());
  (Alloc_probe.words () -. w0) *. Alloc_probe.word_bytes

let median_of times =
  let a = Array.copy times in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

let measure ?(repeats = 7) f =
  ignore (f ());
  Gc.compact ();
  let times = Array.make repeats 0. in
  for i = 0 to repeats - 1 do
    Gc.minor ();
    let t0 = now () in
    ignore (f ());
    times.(i) <- now () -. t0
  done;
  {
    m_best = Array.fold_left min infinity times;
    m_median = median_of times;
    m_alloc_bytes = alloc_bytes f;
  }

let ms t = t *. 1000.
let mbs bytes t = float_of_int bytes /. 1_048_576. /. t

let header title =
  Printf.printf "\n=== %s ===\n" title

let row fmt = Printf.printf fmt

(* --- shared corpora --------------------------------------------------------- *)

let scale n = if !quick then max 1 (n / 4) else n

let minic_corpus =
  lazy (Grammars.Corpus.minic (Rng.create 2024) ~functions:(scale 60))

let java_corpus =
  lazy (Grammars.Corpus.minijava (Rng.create 2024) ~classes:(scale 25))

let calc_corpus = lazy (Grammars.Corpus.arith (Rng.create 2024) ~size:(scale 2500))
let json_corpus = lazy (Grammars.Corpus.json (Rng.create 2024) ~size:(scale 2500))

let prepare ?(config = Config.optimized) g = Engine.prepare_exn ~config g

let assert_ok name = function
  | Ok _ -> ()
  | Error (e : Parse_error.t) ->
      failwith (Printf.sprintf "%s: unexpected parse error: %s" name (Parse_error.message e))

(* ========================================================================== *)
(* E1: composition statistics                                                 *)
(* ========================================================================== *)

let loc_of_texts texts =
  List.fold_left
    (fun acc text ->
      acc
      + List.length
          (List.filter
             (fun l ->
               let l = String.trim l in
               String.length l > 0
               && not (String.length l >= 2 && String.sub l 0 2 = "//"))
             (String.split_on_char '\n' text)))
    0 texts

let e1 () =
  header "E1: grammar module statistics (Table 1 analogue)";
  row "%-12s %8s %10s %12s %8s %6s\n" "grammar" "modules" "instances"
    "productions" "modific." "LoC";
  List.iter
    (fun (name, texts, root) ->
      let lib = Grammars.Loader.library_of_texts texts in
      let modules = List.length (Resolve.modules lib) in
      let g, stats = Grammars.Loader.load ~root texts in
      let mods =
        List.fold_left
          (fun acc (s : Resolve.instance_stat) ->
            acc + s.overridden + s.alternatives_added + s.alternatives_removed)
          0 stats.instances
      in
      row "%-12s %8d %10d %12d %8d %6d\n" name modules
        (List.length stats.instances)
        (Grammar.length g) mods (loc_of_texts texts))
    [
      ("calc", Grammars.Calc.texts, "calc.Main");
      ("json", Grammars.Json.texts, "json.Main");
      ("minic", Grammars.Minic.texts, "c.Program");
      ("minijava", Grammars.Minijava.texts, "j.Program");
      ("rats", Grammars.Metagrammar.texts, "rats.Syntax");
      ( "minic-ext",
        Grammars.Minic.texts @ Grammars.Minic.extension_texts,
        "cx.Program" );
    ];
  row "\nper-instance contributions for minic-ext:\n";
  let _, stats =
    Grammars.Loader.load ~root:"cx.Program"
      (Grammars.Minic.texts @ Grammars.Minic.extension_texts)
  in
  row "%-44s %9s %8s %6s %6s %6s\n" "instance" "inherited" "defined" "over"
    "+alts" "-alts";
  List.iter
    (fun (s : Resolve.instance_stat) ->
      let label =
        if String.length s.instance <= 44 then s.instance
        else String.sub s.instance 0 41 ^ "..."
      in
      row "%-44s %9d %8d %6d %6d %6d\n" label s.inherited s.defined
        s.overridden s.alternatives_added s.alternatives_removed)
    stats.instances

(* ========================================================================== *)
(* E2: parser performance                                                     *)
(* ========================================================================== *)

type contender = {
  c_name : string;
  parse : string -> bool;  (* returns acceptance; must build values *)
}

let engine_contender name g config =
  let eng = prepare ~config g in
  { c_name = name; parse = (fun s -> Result.is_ok (Engine.parse eng s)) }

let e2_language lang corpus contenders =
  let bytes = String.length corpus in
  row "\n%s corpus: %d bytes\n" lang bytes;
  row "  %-22s %10s %10s %10s %10s %8s\n" "parser" "time ms" "median" "MB/s"
    "KB/parse" "rel";
  let base = ref None in
  List.iter
    (fun c ->
      if not (c.parse corpus) then
        failwith (Printf.sprintf "%s/%s rejected its corpus" lang c.c_name);
      let m = measure (fun () -> c.parse corpus) in
      let t = m.m_best in
      let rel =
        match !base with
        | None ->
            base := Some t;
            1.0
        | Some b -> t /. b
      in
      record ~experiment:"e2" ~series:lang
        [
          ("parser", jstr c.c_name);
          ("bytes", jint bytes);
          ("time_ms", jfloat (ms t));
          ("median_ms", jfloat (ms m.m_median));
          ("mb_per_s", jfloat (mbs bytes t));
          ("allocated_bytes_per_parse", jfloat m.m_alloc_bytes);
          ("rel", jfloat rel);
        ];
      row "  %-22s %10.2f %10.2f %10.2f %10.1f %7.2fx\n" c.c_name (ms t)
        (ms m.m_median) (mbs bytes t)
        (m.m_alloc_bytes /. 1024.)
        rel)
    contenders

let e2 () =
  header "E2: parser performance (Table 2 analogue)";
  row "(rel = time relative to the first row: the naive-backtracking baseline)\n";
  let calc = Grammars.Calc.grammar () in
  let calc_opt = Pipeline.optimize calc in
  e2_language "calc" (Lazy.force calc_corpus)
    [
      engine_contender "naive interpreter" calc Config.naive;
      engine_contender "packrat interpreter" calc Config.packrat;
      engine_contender "optimized interpreter" calc_opt Config.optimized;
      { c_name = "generated parser"; parse = (fun s -> Result.is_ok (Bench_gen_calc.parse s)) };
      { c_name = "hand-written"; parse = (fun s -> Result.is_ok (Grammars.Calc.parse_hand s)) };
    ];
  let json = Grammars.Json.grammar () in
  let json_opt = Pipeline.optimize json in
  e2_language "json" (Lazy.force json_corpus)
    [
      engine_contender "naive interpreter" json Config.naive;
      engine_contender "packrat interpreter" json Config.packrat;
      engine_contender "optimized interpreter" json_opt Config.optimized;
      { c_name = "generated parser"; parse = (fun s -> Result.is_ok (Bench_gen_json.parse s)) };
      { c_name = "hand-written"; parse = (fun s -> Result.is_ok (Grammars.Json.parse_hand s)) };
    ];
  let minic = Grammars.Minic.grammar () in
  let minic_opt = Pipeline.optimize minic in
  e2_language "minic" (Lazy.force minic_corpus)
    [
      engine_contender "naive interpreter" minic Config.naive;
      engine_contender "packrat interpreter" minic Config.packrat;
      engine_contender "optimized interpreter" minic_opt Config.optimized;
      { c_name = "hand-written"; parse = (fun s -> Result.is_ok (Grammars.Minic.parse_hand s)) };
    ];
  let java = Grammars.Minijava.grammar () in
  let java_opt = Pipeline.optimize java in
  e2_language "minijava" (Lazy.force java_corpus)
    [
      engine_contender "naive interpreter" java Config.naive;
      engine_contender "packrat interpreter" java Config.packrat;
      engine_contender "optimized interpreter" java_opt Config.optimized;
      { c_name = "generated parser"; parse = (fun s -> Result.is_ok (Bench_gen_java.parse s)) };
      { c_name = "hand-written"; parse = (fun s -> Result.is_ok (Grammars.Minijava.parse_hand s)) };
    ]

(* Optional bechamel micro-benchmark of the same E2 kernels. *)
let e2_micro () =
  header "E2 (micro): bechamel estimates, calc corpus";
  let open Bechamel in
  let corpus = Grammars.Corpus.arith (Rng.create 9) ~size:200 in
  let calc = Grammars.Calc.grammar () in
  let mk name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"calc"
      [
        (let eng = prepare ~config:Config.packrat calc in
         mk "packrat" (fun () -> Engine.parse eng corpus));
        (let eng = prepare ~config:Config.optimized (Pipeline.optimize calc) in
         mk "optimized" (fun () -> Engine.parse eng corpus));
        mk "generated" (fun () -> Bench_gen_calc.parse corpus);
        mk "hand-written" (fun () -> Grammars.Calc.parse_hand corpus);
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> row "  %-24s %12.1f ns/run\n" name est
      | _ -> row "  %-24s (no estimate)\n" name)
    results

(* ========================================================================== *)
(* E3: cumulative optimization impact                                         *)
(* ========================================================================== *)

let e3 () =
  header "E3: impact of the optimizations, cumulative (Table 3 analogue)";
  let g = Grammars.Minic.grammar () in
  let corpus = Lazy.force minic_corpus in
  let bytes = String.length corpus in
  row "minic corpus: %d bytes; each rung adds one optimization\n" bytes;
  row "  %-14s %9s %7s %9s %9s %8s %7s\n" "rung" "time ms" "ratio" "entries"
    "hits" "invoc." "prods";
  let baseline = ref nan in
  List.iter
    (fun (rung : Pipeline.rung) ->
      let eng = prepare ~config:rung.config rung.grammar in
      let out = Engine.run eng corpus in
      assert_ok rung.name out.Engine.result;
      let t = time_best (fun () -> Engine.run eng corpus) in
      if Float.is_nan !baseline then baseline := t;
      record ~experiment:"e3" ~series:"minic-ladder"
        [
          ("rung", jstr rung.name);
          ("time_ms", jfloat (ms t));
          ("ratio", jfloat (t /. !baseline));
          ("memo_entries", jint (Stats.memo_entries out.stats));
          ("memo_hits", jint out.stats.Stats.memo_hits);
          ("invocations", jint out.stats.Stats.invocations);
          ("productions", jint (Grammar.length rung.grammar));
        ];
      row "  %-14s %9.2f %6.2fx %9d %9d %8d %7d\n" rung.name (ms t)
        (t /. !baseline)
        (Stats.memo_entries out.stats)
        out.stats.Stats.memo_hits out.stats.Stats.invocations
        (Grammar.length rung.grammar))
    (Pipeline.ladder g);
  row "  (%s)\n"
    "time ratio is vs. the desugared, memoize-everything baseline";
  (* Where the optimizer itself spends its time: the driver's per-pass
     instrumentation over the default pipeline. *)
  row "\nper-pass driver trace (default pipeline, minic, sugared source):\n";
  (match Driver.run ~gate:false (Pipeline.passes ()) g with
  | Error _ -> row "  (driver failed)\n"
  | Ok o ->
      List.iter
        (fun (r : Stats.pass_row) ->
          record ~experiment:"e3" ~series:"passes"
            [
              ("pass", jstr r.Stats.pass_name);
              ("time_ms", jfloat (ms r.Stats.pass_time));
              ("prods_after", jint r.Stats.prods_after);
              ("nodes_after", jint r.Stats.nodes_after);
              ("changed", if r.Stats.pass_changed then "true" else "false");
            ])
        o.Driver.rows;
      row "%s" (Format.asprintf "%a" Stats.pp_pass_table o.Driver.rows));
  (* Ablation for the one cost-based heuristic: the inlining threshold. *)
  row "\ninlining-threshold ablation (DESIGN.md: cost-based inlining):\n";
  row "  %-10s %9s %8s\n" "threshold" "time ms" "prods";
  let pre = Passes.mark_terminals (Passes.mark_transients g) in
  List.iter
    (fun threshold ->
      let g' = Passes.prune (Passes.inline_pass ~threshold pre) in
      let eng =
        prepare
          ~config:(Config.v ~memo:Config.Chunked ~honor_transient:true ())
          g'
      in
      let t = time_best (fun () -> Engine.run eng corpus) in
      row "  %-10d %9.2f %8d\n" threshold (ms t) (Grammar.length g'))
    [ 0; 4; 8; 12; 24; 48 ]

(* ========================================================================== *)
(* E4: scalability                                                            *)
(* ========================================================================== *)

let e4 () =
  header "E4: parse time scales linearly with input (Figure analogue)";
  let g = Pipeline.optimize (Grammars.Minic.grammar ()) in
  let eng = prepare g in
  row "  %-10s %10s %12s %12s\n" "functions" "bytes" "closure ms" "KB/ms";
  List.iter
    (fun functions ->
      let src = Grammars.Corpus.minic (Rng.create 1) ~functions in
      let t = time_best (fun () -> Engine.parse eng src) in
      record ~experiment:"e4" ~series:"minic-scaling"
        [
          ("functions", jint functions);
          ("bytes", jint (String.length src));
          ("closure_ms", jfloat (ms t));
        ];
      row "  %-10d %10d %12.2f %12.1f\n" functions (String.length src) (ms t)
        (float_of_int (String.length src) /. 1024. /. ms t))
    (List.map scale [ 10; 20; 40; 80; 160 ]);
  row "\npathological input '((((...1...))))' (backtracking blow-up):\n";
  row "  %-7s %16s %16s %18s\n" "depth" "naive ms" "packrat ms"
    "naive invocations";
  let path = Grammars.Path.grammar () in
  let naive = prepare ~config:Config.naive path in
  let packrat = prepare ~config:Config.packrat path in
  List.iter
    (fun depth ->
      let input = Grammars.Corpus.pathological ~depth in
      let tn = time_best ~repeats:3 (fun () -> Engine.parse naive input) in
      let tp = time_best ~repeats:3 (fun () -> Engine.parse packrat input) in
      let invs = (Engine.run naive input).Engine.stats.Stats.invocations in
      record ~experiment:"e4" ~series:"pathological"
        [
          ("depth", jint depth);
          ("naive_ms", jfloat (ms tn));
          ("packrat_ms", jfloat (ms tp));
          ("naive_invocations", jint invs);
        ];
      row "  %-7d %16.3f %16.3f %18d\n" depth (ms tn) (ms tp) invs)
    [ 8; 10; 12; 14; 16; 18 ];
  let deep = Grammars.Corpus.pathological ~depth:3000 in
  let tp = time_best (fun () -> Engine.parse packrat deep) in
  row "  %-7d %16s %16.3f   (naive would not finish)\n" 3000 "-" (ms tp);
  (* Adversarial calc inputs under the hardened governor: every case
     must come back as a structured result — never a crash. *)
  let sc = scale 40_000 in
  row "\nadversarial calc inputs under Limits.hardened (scale %d):\n" sc;
  row "  %-16s %10s %22s %10s\n" "input" "bytes" "outcome" "ms";
  let calc = Pipeline.optimize (Grammars.Calc.grammar ()) in
  let hardened =
    prepare ~config:(Config.with_limits Limits.hardened Config.optimized) calc
  in
  let outcome = function
    | Ok _ -> "ok"
    | Error (e : Parse_error.t) -> (
        match Parse_error.exhausted_which e with
        | Some w -> "exhausted:" ^ Limits.which_name w
        | None -> "syntax-error")
  in
  List.iter
    (fun (label, input) ->
      let o = outcome (Engine.parse hardened input) in
      let t = time_best ~repeats:3 (fun () -> Engine.parse hardened input) in
      record ~experiment:"e4" ~series:"adversarial"
        [
          ("input", jstr label);
          ("bytes", jint (String.length input));
          ("outcome", jstr o);
          ("closure_ms", jfloat (ms t));
        ];
      row "  %-16s %10d %22s %10.2f\n" label (String.length input) o (ms t))
    (Grammars.Corpus.adversarial ~scale:sc);
  (* Governor overhead: the same well-behaved corpus, unlimited budgets
     vs huge-but-finite ones. Finite budgets keep every check live while
     tripping nothing, so the delta is the full price of governance.
     Target: < 5%. *)
  row "\ngovernor overhead on well-behaved corpora (finite budgets, target <5%%):\n";
  row "  %-10s %-10s %14s %14s %10s\n" "corpus" "backend" "unlimited ms"
    "governed ms" "overhead";
  let huge =
    Limits.v ~fuel:(max_int / 2) ~max_depth:(max_int / 2)
      ~max_memo_bytes:(max_int / 2) ~max_input_bytes:(max_int / 2) ()
  in
  List.iter
    (fun (lang, grammar, corpus) ->
      let gopt = Pipeline.optimize grammar in
      List.iter
        (fun (backend, config) ->
          let plain = prepare ~config gopt in
          let governed = prepare ~config:(Config.with_limits huge config) gopt in
          assert_ok (lang ^ "/" ^ backend) (Engine.parse governed corpus);
          (* Interleave the two contenders and take best-of-many: the
             deltas here are a few percent, well inside the noise of two
             independent best-of-5 runs on a shared machine. *)
          let t0 = ref infinity and t1 = ref infinity in
          for _ = 1 to 12 do
            let a = time_best ~repeats:3 (fun () -> Engine.parse plain corpus) in
            let b =
              time_best ~repeats:3 (fun () -> Engine.parse governed corpus)
            in
            if a < !t0 then t0 := a;
            if b < !t1 then t1 := b
          done;
          let t0 = !t0 and t1 = !t1 in
          let pct = 100. *. (t1 -. t0) /. t0 in
          record ~experiment:"e4" ~series:"governor-overhead"
            [
              ("corpus", jstr lang);
              ("backend", jstr backend);
              ("unlimited_ms", jfloat (ms t0));
              ("governed_ms", jfloat (ms t1));
              ("overhead_pct", jfloat pct);
            ];
          row "  %-10s %-10s %14.2f %14.2f %9.1f%%\n" lang backend (ms t0)
            (ms t1) pct)
        [ ("closure", Config.optimized) ])
    [
      ("calc", Grammars.Calc.grammar (), Lazy.force calc_corpus);
      ("minic", Grammars.Minic.grammar (), Lazy.force minic_corpus);
    ]

(* ========================================================================== *)
(* E5: heap utilization                                                       *)
(* ========================================================================== *)

let e5 () =
  header "E5: heap utilization (Figure analogue)";
  let corpus = Lazy.force minic_corpus in
  let bytes = String.length corpus in
  let g = Grammars.Minic.grammar () in
  let gopt = Pipeline.optimize g in
  row "minic corpus: %d bytes\n" bytes;
  row "  %-26s %7s %10s %12s %14s %11s\n" "configuration" "slots" "chunks"
    "memo entries" "entries/byte" "MB alloc";
  List.iter
    (fun (name, grammar, config) ->
      let eng = prepare ~config grammar in
      let out = Engine.run eng corpus in
      assert_ok name out.Engine.result;
      let entries = Stats.memo_entries out.stats in
      (* GC-level allocation during one parse, as a cross-check on the
         entry counts. *)
      let mb = alloc_bytes (fun () -> Engine.run eng corpus) /. 1_048_576. in
      row "  %-26s %7d %10d %12d %14.2f %11.1f\n" name
        (Engine.memo_slots eng) out.stats.Stats.chunks_allocated entries
        (float_of_int entries /. float_of_int bytes)
        mb)
    [
      ("packrat hashtable", g, Config.packrat);
      ("chunked, no transients", g, Config.v ~memo:Config.Chunked ());
      ( "chunked + transients",
        Passes.mark_transients g,
        Config.v ~memo:Config.Chunked ~honor_transient:true () );
      ( "chunked + terminals",
        Passes.mark_terminals (Passes.mark_transients g),
        Config.v ~memo:Config.Chunked ~honor_transient:true () );
      ("fully optimized", gopt, Config.optimized);
    ];
  (* Value allocation: syntax-tree size per input byte. *)
  let eng = prepare gopt in
  (match Engine.parse eng corpus with
  | Ok v ->
      row "\n  syntax-tree nodes: %d (%.2f per input byte)\n"
        (Value.count_nodes v)
        (float_of_int (Value.count_nodes v) /. float_of_int bytes)
  | Error _ -> ());
  (* Edit replay: incremental sessions against from-scratch parses.
     Before every warm reparse one digit near the middle of the corpus
     is rewritten (same length, so the buffer stays valid), which
     damages the memo entries covering that region and leaves the rest
     reusable — the editor-loop workload sessions exist for. MiniJava
     is the largest corpus and stateless, so nearly everything carries;
     MiniC's typedef table makes most of its productions stateful,
     whose entries sessions conservatively refuse to reuse (version
     invalidation) — the honest lower bound of the scheme. *)
  row "\n  edit replay (1-byte edit mid-corpus, warm session vs cold parse):\n";
  row "  %-9s %-8s %8s %11s %11s %9s %8s\n" "grammar" "backend" "bytes"
    "cold (ms)" "warm (ms)" "speedup" "reused";
  List.iter
    (fun (gname, grammar, corpus) ->
      let bytes = String.length corpus in
      let gopt = Pipeline.optimize grammar in
      let site =
        let rec find i =
          if i >= bytes then bytes / 2
          else match corpus.[i] with '0' .. '9' -> i | _ -> find (i + 1)
        in
        find (bytes / 2)
      in
      List.iter
        (fun (label, config) ->
          let eng = prepare ~config gopt in
          let mcold = measure (fun () -> Engine.parse eng corpus) in
          let cold = mcold.m_best in
          let session = Session.create eng corpus in
          assert_ok gname (Session.reparse session);
          let flip = ref false in
          let edit () =
            flip := not !flip;
            Session.apply_edit session ~start:site ~old_len:1
              ~replacement:(if !flip then "7" else "3");
            Session.reparse session
          in
          let mwarm = measure (fun () -> assert_ok gname (edit ())) in
          let warm = mwarm.m_best in
          let st = Session.stats session in
          let speedup = cold /. warm in
          row "  %-9s %-8s %8d %11.2f %11.2f %8.1fx %8d\n" gname label bytes
            (ms cold) (ms warm) speedup st.Stats.memo_reused;
          record ~experiment:"e5" ~series:"edit-replay"
            [
              ("grammar", jstr gname);
              ("backend", jstr label);
              ("bytes", jint bytes);
              ("cold_ms", jfloat (ms cold));
              ("median_cold_ms", jfloat (ms mcold.m_median));
              ("warm_ms", jfloat (ms warm));
              ("median_warm_ms", jfloat (ms mwarm.m_median));
              ("speedup", jfloat speedup);
              ("allocated_bytes_per_reparse", jfloat mwarm.m_alloc_bytes);
              ("reused", jint st.Stats.memo_reused);
              ("relocated", jint st.Stats.memo_relocated);
              (* robustness counters, PR 8: sessions falling back to a
                 cold parse and memo-budget denials during the warm
                 reparse — both zero on this workload, recorded so the
                 trajectory notices if either starts moving *)
              ("memo_degraded", jint st.Stats.memo_degraded);
              ("cold_fallbacks", jint (Session.cold_fallbacks session));
            ])
        [ ("closure", Config.optimized) ])
    [
      ( "minijava",
        Grammars.Minijava.grammar (),
        Grammars.Corpus.minijava (Rng.create 2024) ~classes:(scale 66) );
      ("minic", Grammars.Minic.grammar (), corpus);
      ( "json",
        Grammars.Json.grammar (),
        Lazy.force json_corpus );
    ]

(* ========================================================================== *)
(* E6: modular extension                                                      *)
(* ========================================================================== *)

let e6 () =
  header "E6: extending MiniC by composition (the paper's motivation)";
  let base_texts = Grammars.Minic.texts in
  let ext_texts = Grammars.Minic.extension_texts in
  row "base grammar: %d modules, %d LoC\n" (List.length base_texts)
    (loc_of_texts base_texts);
  row "extensions:   %d modules, %d LoC (pow %d, until %d, query %d, wiring %d)\n"
    (List.length ext_texts) (loc_of_texts ext_texts)
    (loc_of_texts [ List.nth ext_texts 0 ])
    (loc_of_texts [ List.nth ext_texts 1 ])
    (loc_of_texts [ List.nth ext_texts 2 ])
    (loc_of_texts [ List.nth ext_texts 3 ]);
  let t_compose_base =
    time_best (fun () -> Grammars.Loader.load ~root:"c.Program" base_texts)
  in
  let t_compose_ext =
    time_best (fun () ->
        Grammars.Loader.load ~root:"cx.Program" (base_texts @ ext_texts))
  in
  let gb = Grammars.Minic.grammar () in
  let gx = Grammars.Minic.extended_grammar () in
  let t_pipeline =
    time_best (fun () -> prepare (Pipeline.optimize gx))
  in
  row "compose base:                 %8.2f ms (%d productions)\n"
    (ms t_compose_base) (Grammar.length gb);
  row "compose base+extensions:      %8.2f ms (%d productions)\n"
    (ms t_compose_ext) (Grammar.length gx);
  row "optimize + prepare extended:  %8.2f ms\n" (ms t_pipeline);
  let ext_corpus =
    Grammars.Corpus.minic_extended (Rng.create 4) ~functions:(scale 30)
  in
  let engb = prepare (Pipeline.optimize gb) in
  let engx = prepare (Pipeline.optimize gx) in
  (match Engine.parse engx ext_corpus with
  | Ok v ->
      row "extended corpus (%d bytes): parsed, %d nodes\n"
        (String.length ext_corpus) (Value.count_nodes v)
  | Error e ->
      failwith ("extended corpus rejected: " ^ Parse_error.message e));
  row "base grammar rejects it:      %b\n"
    (not (Engine.accepts engb ext_corpus));
  let base_corpus = Lazy.force minic_corpus in
  let tb = time_best (fun () -> Engine.parse engb base_corpus) in
  let tx = time_best (fun () -> Engine.parse engx base_corpus) in
  row "extension cost on base programs: %.2f ms -> %.2f ms (%.2fx)\n" (ms tb)
    (ms tx) (tx /. tb);
  (* Composition scaling: a chain of N modules, each modifying the
     previous one, timed end to end (parse + resolve + flatten). *)
  row "\ncomposition scaling (chain of modifying modules):\n";
  row "  %-8s %12s %14s\n" "depth" "resolve ms" "alternatives";
  List.iter
    (fun depth ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf
        "module Chain0; public X = <A0> 'a' ![0-9a-z];\n";
      for i = 1 to depth do
        Buffer.add_string buf
          (Printf.sprintf
             "module Chain%d; modify Chain%d as Prev; X += <A%d> 'a' \
              \"%d\" ![0-9a-z];\n"
             i (i - 1) i i)
      done;
      let text = Buffer.contents buf in
      let root = Printf.sprintf "Chain%d" depth in
      let t =
        time_best ~repeats:3 (fun () ->
            Grammars.Loader.load ~root [ text ])
      in
      let g, _ = Grammars.Loader.load ~root [ text ] in
      let alts =
        match (Grammar.find_exn g "X").Production.expr.Expr.it with
        | Expr.Alt alts -> List.length alts
        | _ -> 1
      in
      (* Sanity: the deepest alternative actually parses. *)
      let eng = prepare g in
      if not (Engine.accepts eng (Printf.sprintf "a%d" depth)) then
        failwith "chain composition broken";
      row "  %-8d %12.2f %14d\n" depth (ms t) alts)
    (List.map scale [ 8; 16; 32; 64; 128 ])

(* ========================================================================== *)
(* E7: error-report quality (supplementary)                                   *)
(* ========================================================================== *)

let e7 () =
  header "E7: farthest-failure error quality (supplementary)";
  row
    "corrupt one byte of a valid program; how far is the reported error\n\
     from the corruption site? (300 corruptions per language)\n";
  row "  %-10s %10s %10s %12s %12s\n" "language" "median" "mean" "within 10B"
    "within 40B";
  let measure name eng corpus_of =
    let rng = Rng.create 4242 in
    let deviations = ref [] in
    let n = ref 0 in
    while !n < 300 do
      let src = corpus_of rng in
      let pos = Rng.int rng (String.length src) in
      (* Replace with a byte that cannot start anything: '@'. *)
      let bad = String.mapi (fun i c -> if i = pos then '@' else c) src in
      match Engine.parse eng bad with
      | Ok _ -> () (* corruption landed in a comment/string: not an error *)
      | Error e ->
          incr n;
          deviations := abs (e.Parse_error.position - pos) :: !deviations
    done;
    let ds = List.sort compare !deviations in
    let len = List.length ds in
    let median = List.nth ds (len / 2) in
    let mean =
      float_of_int (List.fold_left ( + ) 0 ds) /. float_of_int len
    in
    let within k =
      100. *. float_of_int (List.length (List.filter (fun d -> d <= k) ds))
      /. float_of_int len
    in
    row "  %-10s %9dB %9.1fB %11.1f%% %11.1f%%\n" name median mean (within 10)
      (within 40)
  in
  measure "minic"
    (prepare (Pipeline.optimize (Grammars.Minic.grammar ())))
    (fun rng -> Grammars.Corpus.minic rng ~functions:3);
  measure "minijava"
    (prepare (Pipeline.optimize (Grammars.Minijava.grammar ())))
    (fun rng -> Grammars.Corpus.minijava rng ~classes:2);
  measure "json"
    (prepare (Pipeline.optimize (Grammars.Json.grammar ())))
    (fun rng -> Grammars.Corpus.json rng ~size:60)

(* ========================================================================== *)
(* E8: observability (supplementary)                                          *)
(* ========================================================================== *)

(* An engine whose observe capabilities are all off compiles exactly the
   unobserved matchers ([Engine.observation] is [None], pinned by
   test_observe), so off-vs-off timing differs only by noise (the CI
   gate allows 3%); the instrumented engine's cost is then reported
   honestly against that baseline. *)

let e8 () =
  header "E8: observability: zero-cost-when-off, instrumented overhead";
  let g = Pipeline.optimize (Grammars.Minijava.grammar ()) in
  (* The off-gate is a noise bound, so the corpus size is NOT scaled by
     --quick — and is deliberately large: on millisecond parses,
     cache-layout jitter and scheduler ticks alone exceed the 3% budget
     the gate enforces, while a ~100 KB parse integrates over them. *)
  let corpus = Grammars.Corpus.minijava (Rng.create 2024) ~classes:100 in
  let bytes = String.length corpus in
  row "minijava corpus: %d bytes (interleaved best-of-many)\n" bytes;
  row "  %-10s %10s %10s %10s %10s %9s %9s\n" "backend" "off ms" "off' ms"
    "on ms" "off ovh" "off gate" "on ovh";
  List.iter
    (fun (label, config) ->
      let on =
        prepare ~config:(Config.with_observe (Observe.all ()) config) g
      in
      assert_ok ("e8/" ^ label) (Engine.parse on corpus);
      (* Interleave the contenders as in E4's governor-overhead table:
         the deltas are percent-level, inside the noise of independent
         best-of-5 runs. The off/off' engines are re-prepared every round —
         in alternating order — because a pair prepared once keeps one
         fixed closure/heap layout for the whole comparison, and
         whichever engine happened to land better reads as a
         systematic percent-level delta that best-of cannot cancel.
         Every asymmetry here is load-bearing; see the [timed] comment
         for the one that cost 20%. *)
      let t_off = ref infinity and t_off' = ref infinity
      and t_on = ref infinity in
      let deltas = ref [] in
      for round = 1 to 12 do
        let flip = round land 1 = 0 in
        let off, off' =
          if flip then
            let o = prepare ~config g in
            let o' =
              prepare ~config:(Config.with_observe Observe.off config) g
            in
            (o, o')
          else
            let o' =
              prepare ~config:(Config.with_observe Observe.off config) g
            in
            let o = prepare ~config g in
            (o, o')
        in
        (* One warmup each and a compacted heap, then single timed runs
           in a balanced ABBA pattern. Balance matters: the engines share
           the corpus, so whichever runs second in a pair reads it
           cache-warm — an unbalanced order hands one engine more warm
           slots and shows up as a persistent percent-level delta. ABBA
           gives each engine two first and two second slots per round. *)
        if flip then (
          ignore (Engine.parse off corpus);
          ignore (Engine.parse off' corpus))
        else (
          ignore (Engine.parse off' corpus);
          ignore (Engine.parse off corpus));
        Gc.compact ();
        let a = ref infinity and b = ref infinity in
        let timed eng best =
          (* A full collection before every timed run, not just the first:
             each parse drops megabytes of garbage, and a run on a clean
             heap pays no major slices — if
             only the first run after [Gc.compact] gets that, whichever
             engine owns that slot reads ~20% faster. *)
          Gc.full_major ();
          let t0 = now () in
          ignore (Engine.parse eng corpus);
          let dt = now () -. t0 in
          if dt < !best then best := dt
        in
        List.iter
          (fun off_first ->
            if off_first then (
              timed off a;
              timed off' b)
            else (
              timed off' b;
              timed off a))
          [ true; false; false; true ];
        let c = time_best ~repeats:3 (fun () -> Engine.parse on corpus) in
        if !a < !t_off then t_off := !a;
        if !b < !t_off' then t_off' := !b;
        if c < !t_on then t_on := c;
        deltas := (100. *. (!b -. !a) /. !a) :: !deltas
      done;
      (* Gate on the median of the paired per-round deltas: pairing
         cancels drift within a round, the fresh layouts and the
         alternating preparation and measurement order decorrelate the
         rounds, and the median shrugs off the one round that ran
         under a sibling process. A min-vs-min comparison has none of
         those properties and flickers past the gate a few runs in a
         hundred. *)
      let off_pct =
        let d = List.sort Float.compare !deltas in
        let n = List.length d in
        (List.nth d ((n - 1) / 2) +. List.nth d (n / 2)) /. 2.
      in
      let gate = if Float.abs off_pct > 3.0 then "fail" else "ok" in
      let on_pct = 100. *. (!t_on -. !t_off) /. !t_off in
      record ~experiment:"e8" ~series:"overhead"
        [
          ("backend", jstr label);
          ("bytes", jint bytes);
          ("off_ms", jfloat (ms !t_off));
          ("off_observe_ms", jfloat (ms !t_off'));
          ("on_ms", jfloat (ms !t_on));
          ("off_overhead_pct", jfloat off_pct);
          ("off_gate", jstr gate);
          ("on_overhead_pct", jfloat on_pct);
        ];
      row "  %-10s %10.2f %10.2f %10.2f %9.1f%% %9s %8.1f%%\n" label
        (ms !t_off) (ms !t_off') (ms !t_on) off_pct gate on_pct)
    [ ("closure", Config.optimized) ];
  (* One observed parse: where the time goes, and what the corpus
     exercises. *)
  let eng =
    prepare ~config:(Config.with_observe (Observe.all ()) Config.optimized) g
  in
  assert_ok "e8/profile" (Engine.parse eng corpus);
  match Engine.observation eng with
  | None -> failwith "e8: observed engine reports no sink"
  | Some o ->
      (match Observe.profile o with
      | None -> ()
      | Some p ->
          row "\ntop productions by self time (one observed minijava parse):\n";
          row "%s" (Format.asprintf "%a" (Profile.pp_table ~top:8) p);
          List.iteri
            (fun i (r : Profile.row) ->
              if i < 8 then
                record ~experiment:"e8" ~series:"top-productions"
                  [
                    ("rank", jint (i + 1));
                    ("production", jstr r.Profile.row_name);
                    ("calls", jint r.Profile.row_calls);
                    ("hits", jint r.Profile.row_hits);
                    ("self_ns", jint r.Profile.row_self_ns);
                    ("total_ns", jint r.Profile.row_total_ns);
                  ])
            (Profile.rows p));
      let ph, np, am, na = Observe.coverage_summary o in
      row "coverage on the corpus: %d/%d productions, %d/%d alternatives\n" ph
        np am na;
      record ~experiment:"e8" ~series:"coverage"
        [
          ("prods_hit", jint ph);
          ("prods", jint np);
          ("arms_matched", jint am);
          ("arms", jint na);
        ];
      row "trace ring: %d events seen, capacity %d\n" (Observe.events_seen o)
        (Observe.ring_capacity o)

(* ========================================================================== *)
(* E9: zero-copy input (supplementary)                                        *)
(* ========================================================================== *)

(* Two claims about the Bigarray input layer. First, on value-building
   parses of on-disk files, mapping the file (Source.map_file +
   Engine.run_input) is observationally identical to reading it into a
   string — same tree, same Stats — while allocating strictly less,
   because the file-sized heap copy never happens; checked literally
   before timing. Second, on a pure recognizer (every production Void) a
   steady-state mapped parse's allocation is independent of input size:
   the memo arena and scratch pools are engine-owned and reused across
   runs, no values are built, and the mapping lives outside the OCaml
   heap — so the only per-run allocation is fixed-size bookkeeping. *)

let e9 () =
  header "E9: zero-copy input: mmap vs copy (Bigarray-backed sources)";
  let with_temp_file contents f =
    let path = Filename.temp_file "rats_bench" ".txt" in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents);
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  let map_input path =
    match Source.map_file path with
    | Ok src -> Source.input src
    | Error msg -> failwith ("e9: " ^ msg)
  in
  row "mmap vs copy (values built; both modes pay the file I/O):\n";
  row "  %-9s %-5s %10s %11s %9s %11s\n" "grammar" "mode" "bytes" "median ms"
    "MB/s" "KB/parse";
  List.iter
    (fun (gname, grammar, corpus) ->
      let eng = prepare (Pipeline.optimize grammar) in
      with_temp_file corpus (fun path ->
          (* Equivalence before timing: the mapped parse must be
             byte-identical, value and every counter. *)
          let out_copy = Engine.run_input eng (Input.of_string corpus) in
          let out_map = Engine.run_input eng (map_input path) in
          assert_ok (gname ^ "/copy") out_copy.Engine.result;
          assert_ok (gname ^ "/mmap") out_map.Engine.result;
          (match (out_copy.Engine.result, out_map.Engine.result) with
          | Ok a, Ok b when Value.equal a b -> ()
          | _ -> failwith (gname ^ ": mmap parse differs from copy parse"));
          if
            Stats.fields out_copy.Engine.stats
            <> Stats.fields out_map.Engine.stats
          then failwith (gname ^ ": mmap stats differ from copy stats");
          let bytes = String.length corpus in
          List.iter
            (fun (mode, parse) ->
              let m = measure parse in
              record ~experiment:"e9" ~series:"mmap-vs-copy"
                [
                  ("grammar", jstr gname);
                  ("mode", jstr mode);
                  ("bytes", jint bytes);
                  ("time_ms", jfloat (ms m.m_best));
                  ("median_ms", jfloat (ms m.m_median));
                  ("mb_per_s", jfloat (mbs bytes m.m_best));
                  ("allocated_bytes_per_parse", jfloat m.m_alloc_bytes);
                ];
              row "  %-9s %-5s %10d %11.2f %9.2f %11.1f\n" gname mode bytes
                (ms m.m_median) (mbs bytes m.m_best)
                (m.m_alloc_bytes /. 1024.))
            [
              ( "copy",
                fun () ->
                  let text =
                    In_channel.with_open_bin path In_channel.input_all
                  in
                  Engine.run_input eng (Input.of_string text) );
              ("mmap", fun () -> Engine.run_input eng (map_input path));
            ]))
    [
      ("json", Grammars.Json.grammar (), Lazy.force json_corpus);
      ("minijava", Grammars.Minijava.grammar (), Lazy.force java_corpus);
    ];
  (* Recognizer: hand-built all-Void grammars (no value is constructed
     anywhere in the body), then grow the input; the bytes/parse column
     must stay flat. These run entirely on pooled scratch plus the
     engine-owned memo arena, so steady-state allocation is fixed-size
     bookkeeping regardless of input length. *)
  let digits = Charset.range '0' '9' in
  let expr_recog =
    let open Builder in
    grammar ~start:"S"
      [
        prod ~kind:Attr.Void "S" (star (e "Expr" @: c ';'));
        prod ~kind:Attr.Void ~memo:Attr.Memo_always "Expr"
          (e "Term" @: star (one_of "+-" @: e "Term"));
        prod ~kind:Attr.Void "Term"
          (e "Atom" @: star (one_of "*/" @: e "Atom"));
        prod ~kind:Attr.Void "Atom"
          (plus (cls digits) <|> c '(' @: e "Expr" @: c ')');
      ]
  in
  let list_recog =
    let open Builder in
    grammar ~start:"S"
      [
        prod ~kind:Attr.Void "S" (star (e "Val" @: c ';'));
        prod ~kind:Attr.Void ~memo:Attr.Memo_always "Val"
          (plus (cls digits)
          <|> c '[' @: opt (e "Val" @: star (c ',' @: e "Val")) @: c ']');
      ]
  in
  let tile unit target =
    let b = Buffer.create (target + String.length unit) in
    while Buffer.length b < target do
      Buffer.add_string b unit
    done;
    Buffer.contents b
  in
  List.iter
    (fun (gname, grammar, unit) ->
      let recog = prepare (Pipeline.optimize grammar) in
      row "\nrecognizer (%s, all-Void), mapped input — alloc vs size:\n" gname;
      row "  %-10s %11s %14s\n" "bytes" "median ms" "bytes/parse";
      List.iter
        (fun target ->
          let corpus = tile unit (scale target) in
          with_temp_file corpus (fun path ->
              let m =
                measure (fun () ->
                    let out = Engine.run_input recog (map_input path) in
                    assert_ok ("e9/" ^ gname) out.Engine.result)
              in
              record ~experiment:"e9" ~series:"recognizer-alloc"
                [
                  ("grammar", jstr gname);
                  ("mode", jstr "mmap");
                  ("bytes", jint (String.length corpus));
                  ("median_ms", jfloat (ms m.m_median));
                  ("allocated_bytes_per_parse", jfloat m.m_alloc_bytes);
                ];
              row "  %-10d %11.2f %14.0f\n" (String.length corpus)
                (ms m.m_median) m.m_alloc_bytes))
        [ 10_000; 40_000; 160_000 ])
    [
      ("expr-recog", expr_recog, "12+34*(56-7)/8;");
      ("list-recog", list_recog, "[12,[3,[45,6],[]],789];");
    ];
  (* Voidified real grammars: the calc and MiniJava grammars the rest
     of the suite measures, with every production kind erased by
     [Batch.recognizer_erase] — exactly what [rml parse --recognize]
     and the degradation ladder run. Every lean-path construct is
     allocation-free, so bytes/parse is a small constant independent of
     input size; check_regression gates the flatness (max <= 1.25*min +
     16 KB per grammar). *)
  let voidify g =
    match Batch.recognizer_erase g with
    | Some g' -> g'
    | None -> failwith "e9: recognizer erasure produced an ill-formed grammar"
  in
  row "\nvoidified real grammars — alloc vs size (lean recognizer mode):\n";
  row "  %-9s %-8s %10s %11s %14s\n" "grammar" "backend" "bytes" "median ms"
    "bytes/parse";
  List.iter
    (fun (gname, grammar, corpora) ->
      let g = Pipeline.optimize (voidify grammar) in
      List.iter
        (fun (backend, config) ->
          let eng = prepare ~config g in
          List.iter
            (fun corpus ->
              let m =
                measure (fun () ->
                    assert_ok
                      ("e9/voidified-" ^ gname)
                      (Engine.parse eng corpus))
              in
              record ~experiment:"e9" ~series:"voidified-recognizer-alloc"
                [
                  ("grammar", jstr gname);
                  ("backend", jstr backend);
                  ("bytes", jint (String.length corpus));
                  ("median_ms", jfloat (ms m.m_median));
                  ("allocated_bytes_per_parse", jfloat m.m_alloc_bytes);
                ];
              row "  %-9s %-8s %10d %11.2f %14.0f\n" gname backend
                (String.length corpus) (ms m.m_median) m.m_alloc_bytes)
            corpora)
        [ ("closure", Config.optimized) ])
    [
      ( "calc",
        Grammars.Calc.grammar (),
        List.map
          (fun size -> Grammars.Corpus.arith (Rng.create 2024) ~size)
          [ scale 2_500; scale 10_000; scale 40_000 ] );
      ( "minijava",
        Grammars.Minijava.grammar (),
        List.map
          (fun classes -> Grammars.Corpus.minijava (Rng.create 2024) ~classes)
          [ scale 4; scale 16; scale 64 ] );
    ]

(* ========================================================================== *)
(* E10: fault-isolated batch throughput and the degradation ladder            *)
(* ========================================================================== *)

let e10 () =
  header "E10: batch pipeline: docs/sec, isolation and ladder cost";
  let run_batch ?limits config g docs =
    match Batch.run ~config ?limits g (Batch.Docs docs) with
    | Ok rep -> rep
    | Error _ -> failwith "e10: grammar failed to compile"
  in
  let backends = [ ("closure", Config.optimized) ] in
  (* Throughput: many small calc documents through [Batch.run], each
     parsed cold under its own limits snapshot and exception backstop —
     the docs/sec here is raw engine speed plus the full per-document
     isolation overhead. *)
  let ndocs = scale 150 in
  let docs =
    List.init ndocs (fun i ->
        ( Printf.sprintf "doc%d" i,
          Grammars.Corpus.arith
            (Rng.create (i + 1))
            ~size:(60 + (i mod 7 * 40)) ))
  in
  let bytes = List.fold_left (fun a (_, d) -> a + String.length d) 0 docs in
  let calc = Pipeline.optimize (Grammars.Calc.grammar ()) in
  row "throughput: %d calc docs, %d bytes total\n" ndocs bytes;
  row "  %-8s %10s %11s %9s %9s\n" "backend" "docs/s" "median ms" "p50 ms"
    "p99 ms";
  List.iter
    (fun (label, config) ->
      let rep = run_batch config calc docs in
      let s = rep.Batch.summary in
      if s.Batch.s_ok <> ndocs then
        failwith ("e10: throughput corpus should be all-ok on " ^ label);
      let m = measure (fun () -> run_batch config calc docs) in
      let dps = float_of_int ndocs /. m.m_median in
      record ~experiment:"e10" ~series:"throughput"
        [
          ("backend", jstr label);
          ("docs", jint ndocs);
          ("bytes", jint bytes);
          ("docs_per_s", jfloat dps);
          ("median_ms", jfloat (ms m.m_median));
          ("p50_ms", jfloat s.Batch.s_p50_ms);
          ("p99_ms", jfloat s.Batch.s_p99_ms);
          ("ok", jint s.Batch.s_ok);
          ("failed", jint s.Batch.s_failed);
          ("allocated_bytes_per_run", jfloat m.m_alloc_bytes);
        ];
      row "  %-8s %10.0f %11.2f %9.3f %9.3f\n" label dps (ms m.m_median)
        s.Batch.s_p50_ms s.Batch.s_p99_ms)
    backends;
  (* Ladder cost: a memoized chain whose parse is exponential without
     memo and linear with it. Cold runs under roomy limits stay on the
     full rung; the degraded series caps the memo budget below what
     value-carrying chunks need, so every document trips its fuel on
     the full rung and is rescued by the recognizer retry — the
     recorded ratio is the price of descending the ladder, and the
     counters pin that the rescue really happened. *)
  let chain =
    let open Builder in
    let link i next =
      prod ~kind:Attr.Generic ~memo:Attr.Memo_always
        (Printf.sprintf "C%d" i)
        (e next @: c 'b' <|> e next)
    in
    grammar ~start:"S"
      (prod ~kind:Attr.Generic "S" (plus (e "C0"))
      :: List.init 7 (fun i -> link i (Printf.sprintf "C%d" (i + 1)))
      @ [ prod ~kind:Attr.Generic ~memo:Attr.Memo_always "C7" (c 'a') ])
  in
  let ldocs = scale 60 in
  let ladder_docs =
    List.init ldocs (fun i -> (Printf.sprintf "doc%d" i, String.make 200 'a'))
  in
  row "\nladder: %d chain docs of 200 bytes, cold vs degraded:\n" ldocs;
  row "  %-8s %-9s %10s %11s %11s %9s\n" "backend" "mode" "docs/s" "median ms"
    "recognizer" "degraded";
  List.iter
    (fun (label, config) ->
      let cold_median = ref 0. in
      List.iter
        (fun (mode, limits) ->
          let rep = run_batch ?limits config chain ladder_docs in
          let s = rep.Batch.summary in
          if s.Batch.s_ok <> ldocs then
            failwith
              (Printf.sprintf "e10: %s/%s should parse every doc" label mode);
          (match mode with
          | "cold" when s.Batch.s_rung_recognizer <> 0 ->
              failwith "e10: cold run descended the ladder"
          | "degraded" when s.Batch.s_rung_recognizer <> ldocs ->
              failwith "e10: degraded run should rescue every doc"
          | _ -> ());
          let m =
            measure (fun () -> run_batch ?limits config chain ladder_docs)
          in
          if mode = "cold" then cold_median := m.m_median;
          let dps = float_of_int ldocs /. m.m_median in
          record ~experiment:"e10" ~series:"ladder"
            [
              ("backend", jstr label);
              ("mode", jstr mode);
              ("docs", jint ldocs);
              ("docs_per_s", jfloat dps);
              ("median_ms", jfloat (ms m.m_median));
              ( "vs_cold",
                jfloat
                  (if !cold_median > 0. then m.m_median /. !cold_median
                   else 1.) );
              ("p50_ms", jfloat s.Batch.s_p50_ms);
              ("p99_ms", jfloat s.Batch.s_p99_ms);
              ("rung_recognizer", jint s.Batch.s_rung_recognizer);
              ("retried", jint s.Batch.s_degraded);
              ("memo_degraded", jint s.Batch.s_memo_degraded);
              ("cold_fallbacks", jint s.Batch.s_cold_fallbacks);
            ];
          row "  %-8s %-9s %10.0f %11.2f %11d %9d\n" label mode dps
            (ms m.m_median) s.Batch.s_rung_recognizer s.Batch.s_memo_degraded)
        [
          ("cold", None);
          ("degraded", Some (Limits.v ~max_memo_bytes:55_000 ~fuel:6_000 ()));
        ])
    backends

(* ========================================================================== *)
(* E11: pipeline telemetry: metrics-on vs metrics-off batch overhead          *)
(* ========================================================================== *)

(* The PR 5 zero-cost-when-off contract, extended to the pipeline by
   PR 10: a batch run given no registry never enters the metrics
   module, and a run WITH one must stay within noise of it — the
   record path is a handful of int stores and one shift loop per
   document. Methodology is E8's observe-off gate verbatim: per-round
   paired deltas, single timed runs on a freshly-collected heap in a
   balanced ABBA pattern, gated on the median of the paired deltas
   (<= 3%, reported through the same off_gate field CI greps). A
   structural pass first pins that the registry reconciles with the
   run it measured: the status counters must cover every record and
   the latency histogram must have observed each one. *)

let e11 () =
  header "E11: pipeline telemetry: metrics-on vs metrics-off batch overhead";
  let ndocs = scale 150 in
  let docs =
    List.init ndocs (fun i ->
        ( Printf.sprintf "doc%d" i,
          Grammars.Corpus.arith
            (Rng.create (i + 1))
            ~size:(60 + (i mod 7 * 40)) ))
  in
  let bytes = List.fold_left (fun a (_, d) -> a + String.length d) 0 docs in
  let calc = Pipeline.optimize (Grammars.Calc.grammar ()) in
  let run_batch ?metrics config =
    match Batch.run ?metrics ~config calc (Batch.Docs docs) with
    | Ok rep -> rep
    | Error _ -> failwith "e11: grammar failed to compile"
  in
  row "corpus: %d calc docs, %d bytes (interleaved ABBA rounds)\n" ndocs bytes;
  row "  %-8s %10s %10s %9s %9s\n" "backend" "off ms" "on ms" "on ovh" "gate";
  List.iter
    (fun (label, config) ->
      (* Structural: the registry is a faithful second view of the run. *)
      let reg = Metrics.create () in
      let rep = run_batch ~metrics:reg config in
      let s = rep.Batch.summary in
      let cval l =
        Metrics.counter_value (Metrics.counter reg ~labels:l "rml_batch_docs_total")
      in
      if cval [ ("status", "ok") ] <> s.Batch.s_ok then
        failwith ("e11: ok counter disagrees with the summary on " ^ label);
      if cval [ ("status", "ok") ] + cval [ ("status", "fail") ] <> s.Batch.s_docs
      then failwith ("e11: docs_total misses records on " ^ label);
      let h = Metrics.histogram reg "rml_batch_doc_latency_us" in
      if Metrics.hist_count h <> s.Batch.s_docs then
        failwith ("e11: latency histogram misses records on " ^ label);
      record ~experiment:"e11" ~series:"reconcile"
        [
          ("backend", jstr label);
          ("docs", jint s.Batch.s_docs);
          ("ok", jint s.Batch.s_ok);
          ("hist_count", jint (Metrics.hist_count h));
          ("hist_p50_us", jfloat (Metrics.quantile h 0.5));
          ("hist_p99_us", jfloat (Metrics.quantile h 0.99));
          ("summary_p50_ms", jfloat s.Batch.s_p50_ms);
          ("summary_p99_ms", jfloat s.Batch.s_p99_ms);
        ];
      (* Overhead: E8's paired-delta discipline. A fresh registry per
         timed run — registration cost is part of the price measured. *)
      let t_off = ref infinity and t_on = ref infinity in
      let deltas = ref [] in
      for _round = 1 to 10 do
        ignore (run_batch config);
        ignore (run_batch ~metrics:(Metrics.create ()) config);
        Gc.compact ();
        let a = ref infinity and b = ref infinity in
        let timed f best =
          Gc.full_major ();
          let t0 = now () in
          ignore (f ());
          let dt = now () -. t0 in
          if dt < !best then best := dt
        in
        List.iter
          (fun off_first ->
            if off_first then (
              timed (fun () -> run_batch config) a;
              timed (fun () -> run_batch ~metrics:(Metrics.create ()) config) b)
            else (
              timed (fun () -> run_batch ~metrics:(Metrics.create ()) config) b;
              timed (fun () -> run_batch config) a))
          [ true; false; false; true ];
        if !a < !t_off then t_off := !a;
        if !b < !t_on then t_on := !b;
        deltas := (100. *. (!b -. !a) /. !a) :: !deltas
      done;
      let on_pct =
        let d = List.sort Float.compare !deltas in
        let n = List.length d in
        (List.nth d ((n - 1) / 2) +. List.nth d (n / 2)) /. 2.
      in
      (* One-sided: telemetry being (noise-)faster than bare is fine. *)
      let gate = if on_pct > 3.0 then "fail" else "ok" in
      record ~experiment:"e11" ~series:"overhead"
        [
          ("backend", jstr label);
          ("docs", jint ndocs);
          ("bytes", jint bytes);
          ("off_ms", jfloat (ms !t_off));
          ("on_ms", jfloat (ms !t_on));
          ("on_overhead_pct", jfloat on_pct);
          ("off_gate", jstr gate);
        ];
      row "  %-8s %10.2f %10.2f %8.1f%% %9s\n" label (ms !t_off) (ms !t_on)
        on_pct gate)
    [ ("closure", Config.optimized) ]

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec scan = function
    | [] -> []
    | "--quick" :: rest ->
        quick := true;
        scan rest
    | "--micro" :: rest ->
        micro := true;
        scan rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        scan rest
    | "--json" :: [] ->
        prerr_endline "--json needs a file argument";
        exit 2
    | a :: rest -> a :: scan rest
  in
  let args = scan args in
  let selected =
    match args with
    | [] -> experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S (have: %s)\n" n
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  Printf.printf "rats-ml benchmark harness (quick=%b)\n" !quick;
  List.iter (fun (_, f) -> f ()) selected;
  if !micro then e2_micro ();
  write_json ()
