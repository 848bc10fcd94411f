(* Calls into each layer's public functions — untraced for the timed
   loop, wrapped in the benchmark's own spans for the traced run — and
   the per-layer metrics derived from those spans and counters. *)

open Rats

(* --- counters ---------------------------------------------------------- *)

(* Named sums with sample counts; [mean] of an absent name is 0. *)
module Acc = struct
  type t = (string, float * int) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) name v =
    let s, n = Option.value (Hashtbl.find_opt t name) ~default:(0., 0) in
    Hashtbl.replace t name (s +. v, n + 1)

  let sum (t : t) name = match Hashtbl.find_opt t name with Some (s, _) -> s | None -> 0.
  let count (t : t) name = match Hashtbl.find_opt t name with Some (_, n) -> n | None -> 0
  let mean t name = Meter.ratio (sum t name) (float_of_int (count t name))
end

(* --- compiling a grammar ----------------------------------------------- *)

type compiled = {
  grammar : Inputs.grammar;
  composed : Grammar.t;
  optimized : Grammar.t;
  engine : Engine.t;
}

(* The user path, from module text to a prepared engine with the
   defaults of [Rats.parser_of]. *)
let compile g =
  let composed = Check.composed g in
  let engine = Check.fail_on_errors "parser_of" (Rats.parser_of composed) in
  engine

(* The same path with [Rats.parser_of] split into its two public halves,
   the gated [Driver.run] over the default passes and [Engine.prepare],
   each in its own span. *)
let compile_traced tr ~op g =
  let tag = Inputs.name g in
  let modules = Trace.span tr ("meta." ^ tag) ~op (fun () -> Check.modules g) in
  let composed =
    Trace.span tr ("modules." ^ tag) ~op (fun () ->
        Check.fail_on_errors "compose" (Rats.compose ~root:(Inputs.root g) modules))
  in
  let optimized =
    Trace.span tr ("optimize." ^ tag) ~op (fun () ->
        (Check.fail_on_errors "optimize" (Driver.run (Pipeline.passes ()) composed)).Driver.grammar)
  in
  let engine =
    Trace.span tr ("prepare." ^ tag) ~op (fun () ->
        Check.fail_on_errors "prepare" (Engine.prepare ~config:Config.optimized optimized))
  in
  { grammar = g; composed; optimized; engine }

(* Set-up time: seconds to compile every grammar of a workload. The
   first compile in the process is the cold one; the rest are sampled a
   few at a time between the loop's passes, so that they spread over the
   whole run as its timings do. No full major collection settles the
   heap before them: on OCaml 5.1 one between every two passes makes
   the major heap grow pass after pass. *)
module Setup = struct
  type t = { grammars : Inputs.grammar list; cold : float; mutable samples : float list }

  let time grammars =
    let t0 = Meter.now () in
    List.iter (fun g -> ignore (Sys.opaque_identity (compile g))) grammars;
    float_of_int (Meter.now () - t0) /. 1e9

  let create grammars = { grammars; cold = time grammars; samples = [] }

  let sample t =
    for _ = 1 to 3 do
      t.samples <- time t.grammars :: t.samples
    done

  let median t = Meter.middle (Array.of_list t.samples)

  let note t =
    Printf.sprintf "setup: cold first compile of %s %.4f s, median of %d later compiles %.4f s"
      (String.concat " and " (List.map Inputs.name t.grammars))
      t.cold (List.length t.samples) (median t)
end

(* --- probes ------------------------------------------------------------ *)

(* Probe spans sit outside every operation (op id -1), so they never
   count toward operation latency. *)

(* Each default pass alone through [Driver.run], on the grammar the
   passes before it produced. The driver's shared analysis cache does
   not carry over between these calls, so the probes need not add up to
   [optimize.ms]. *)
let pass_probes tr (c : compiled) =
  ignore
    (List.fold_left
       (fun g (p : Pass.t) ->
         Trace.span tr (Printf.sprintf "probe.pass.%s.%s" p.name (Inputs.name c.grammar)) ~op:(-1)
           (fun () ->
             (Check.fail_on_errors "pass" (Driver.run ~gate:false [ p ] g)).Driver.grammar))
       c.composed (Pipeline.passes ()))

let pass_names () = List.map (fun (p : Pass.t) -> p.name) (Pipeline.passes ())

let structure acc (c : compiled) =
  Acc.add acc "modules.productions" (float_of_int (Grammar.length c.composed));
  Acc.add acc "optimize.nodes_after" (float_of_int (Grammar.size c.optimized));
  Acc.add acc "prepare.memo_slots" (float_of_int (Engine.memo_slots c.engine))

(* One observation of the parse layer: an [Engine.run] with its
   counters and the words it allocated. *)
let observe_parse acc g ~ns (o : Engine.outcome) ~alloc_words =
  let tag = Inputs.name g and s = o.Engine.stats in
  let both k v =
    Acc.add acc ("parse." ^ k) v;
    Acc.add acc (Printf.sprintf "parse.%s.%s" tag k) v
  in
  both "ms" (Meter.ms_of_ns ns);
  both "memo_stores" (float_of_int s.Stats.memo_stores);
  both "memo_hits" (float_of_int s.Stats.memo_hits);
  Acc.add acc "parse.invocations" (float_of_int s.Stats.invocations);
  Acc.add acc "parse.backtracks" (float_of_int s.Stats.backtracks);
  Acc.add acc "parse.alloc_bytes" (alloc_words *. Meter.word_bytes)

let timed_run tr name eng text =
  let w0 = Meter.words () in
  let i = Trace.enter tr name ~op:(-1) in
  let o = Engine.run eng text in
  Trace.leave tr i;
  (o, Trace.elapsed tr i, Meter.words () -. w0)

(* Backend, recognizer and cold-pool probes over a sample of a
   workload's documents. *)
let backend_probes tr acc (c : compiled) docs =
  let tag = Inputs.name c.grammar in
  let vm = Check.fail_on_errors "vm" (Engine.prepare ~config:Config.vm c.optimized) in
  let recognizer =
    match Batch.recognizer_erase c.optimized with
    | Some g -> Check.fail_on_errors "recognizer" (Engine.prepare ~config:Config.optimized g)
    | None -> failwith "recognizer erasure failed"
  in
  (match docs with
  | first :: _ ->
      let fresh = Check.fail_on_errors "cold" (Engine.prepare ~config:Config.optimized c.optimized) in
      let _, ns, _ = timed_run tr ("probe.cold." ^ tag) fresh first in
      Acc.add acc "parse.cold_ms" (Meter.ms_of_ns ns)
  | [] -> ());
  List.iter
    (fun text ->
      let _, ns, _ = timed_run tr ("probe.closure." ^ tag) c.engine text in
      Acc.add acc "parse.closure.ms" (Meter.ms_of_ns ns);
      let _, ns_vm, _ = timed_run tr ("probe.vm." ^ tag) vm text in
      Acc.add acc "parse.vm.ms" (Meter.ms_of_ns ns_vm);
      let _, ns_rec, _ = timed_run tr ("probe.recognize." ^ tag) recognizer text in
      Acc.add acc "recognize.ms" (Meter.ms_of_ns ns_rec);
      Acc.add acc "probe.closure_ns" (float_of_int ns);
      Acc.add acc "probe.recognize_ns" (float_of_int ns_rec))
    docs

(* Render a value or error into [buf]: the output layer of the user
   path, as [rml parse] prints a tree or an error. *)
let render buf text = function
  | Ok v -> Buffer.add_string buf (Value.to_string v)
  | Error e -> Buffer.add_string buf (Check.render_error text e)

(* Renders a sample of documents; each rendered tree is checked against
   the rendering of the packrat reference's tree. *)
let output_probe tr acc tally (c : compiled) ~packrat docs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun text ->
      let r = Rats.parse c.engine text in
      Buffer.clear buf;
      let w0 = Meter.words () in
      let i = Trace.enter tr ("probe.output." ^ Inputs.name c.grammar) ~op:(-1) in
      render buf text r;
      Trace.leave tr i;
      Acc.add acc "output.ms" (Meter.ms_of_ns (Trace.elapsed tr i));
      Acc.add acc "output.bytes" (float_of_int (Buffer.length buf));
      Acc.add acc "output.alloc_bytes" ((Meter.words () -. w0) *. Meter.word_bytes);
      let want = Rats.parse packrat text in
      if Result.is_ok r || Result.is_ok want then
        Loop.check tally
          (match want with
          | Ok v when Result.is_ok r ->
              String.equal (Buffer.contents buf) (Value.to_string v)
          | _ -> false)
          ~what:(fun () ->
            Printf.sprintf "%s document of %d bytes: rendered tree differs from the reference's"
              (Inputs.name c.grammar) (String.length text)))
    docs

(* --- per-op GC counters ------------------------------------------------ *)

type gc_mark = { words : float; minor : int; major : int; promoted : float }

let gc_mark () =
  let _, promoted, _ = Gc.counters () in
  let q = Gc.quick_stat () in
  { words = Meter.words (); minor = q.Gc.minor_collections;
    major = q.Gc.major_collections; promoted }

let observe_gc acc m0 =
  let m1 = gc_mark () in
  Acc.add acc "gc.alloc_bytes_per_op" ((m1.words -. m0.words) *. Meter.word_bytes);
  Acc.add acc "gc.minor_collections" (float_of_int (m1.minor - m0.minor));
  Acc.add acc "gc.major_collections" (float_of_int (m1.major - m0.major));
  Acc.add acc "gc.promoted_words" (m1.promoted -. m0.promoted)

(* --- the per-layer metric set ------------------------------------------ *)

(* The batch workload mixes these two grammars; its parse and batch
   metrics are also reported per grammar. *)
let split = [ Inputs.Calc; Inputs.Json ]

(* Every per-layer metric, in BENCHMARK.json order, from the traced
   run's spans and counters. A layer the workload never calls reads 0. *)
let metrics spans acc =
  let mean_ms pred =
    let sum = ref 0 and n = ref 0 in
    Array.iter
      (fun (s : Trace.span) ->
        if pred s.name then begin
          sum := !sum + Trace.duration s;
          incr n
        end)
      spans;
    Meter.ratio (Meter.ms_of_ns !sum) (float_of_int !n)
  in
  (* Per grammar compile: the spans are named <layer>.<grammar>. *)
  let layer_ms l = mean_ms (fun n -> Trace.layer_of n = l && String.length n > String.length l) in
  let prefix p n = String.length n >= String.length p && String.sub n 0 (String.length p) = p in
  let pass_ms p = mean_ms (prefix ("probe.pass." ^ p ^ ".")) in
  let ms n u = Meter.metric n u in
  let hit_ratio k = Meter.ratio (Acc.sum acc (k ^ ".memo_hits")) (Acc.sum acc (k ^ ".memo_stores")) in
  let per_grammar =
    List.concat_map
      (fun g ->
        let k = "parse." ^ Inputs.name g in
        [
          ms (k ^ ".ms") "ms" (Acc.mean acc (k ^ ".ms"));
          ms (k ^ ".memo_stores") "count" (Acc.mean acc (k ^ ".memo_stores"));
          ms (k ^ ".memo_hits") "count" (Acc.mean acc (k ^ ".memo_hits"));
          ms (k ^ ".memo_hit_ratio") "ratio" (hit_ratio k);
        ])
      split
  in
  let per_batch =
    List.concat_map
      (fun g ->
        let k = "batch." ^ Inputs.name g in
        [
          ms (k ^ ".isolation_ms") "ms" (Acc.mean acc (k ^ ".isolation_ms"));
          ms (k ^ ".retries") "count" (Acc.sum acc (k ^ ".retries"));
          ms (k ^ ".fuel_used") "count" (Acc.mean acc (k ^ ".fuel_used"));
          ms (k ^ ".memo_degraded") "count" (Acc.sum acc (k ^ ".memo_degraded"));
        ])
      split
  in
  let closure = Acc.sum acc "probe.closure_ns" in
  [
    ms "meta.ms" "ms" (layer_ms "meta");
    ms "modules.ms" "ms" (layer_ms "modules");
    ms "modules.productions" "count" (Acc.sum acc "modules.productions");
    ms "optimize.ms" "ms" (layer_ms "optimize");
  ]
  @ List.map (fun p -> ms ("optimize.pass." ^ p ^ ".ms") "ms" (pass_ms p)) (pass_names ())
  @ [
      ms "optimize.nodes_after" "count" (Acc.sum acc "optimize.nodes_after");
      ms "prepare.ms" "ms" (layer_ms "prepare");
      ms "prepare.memo_slots" "count" (Acc.sum acc "prepare.memo_slots");
      ms "parse.cold_ms" "ms" (Acc.mean acc "parse.cold_ms");
      ms "parse.ms" "ms" (Acc.mean acc "parse.ms");
      ms "parse.closure.ms" "ms" (Acc.mean acc "parse.closure.ms");
      ms "parse.vm.ms" "ms" (Acc.mean acc "parse.vm.ms");
      ms "parse.invocations" "count" (Acc.mean acc "parse.invocations");
      ms "parse.memo_stores" "count" (Acc.mean acc "parse.memo_stores");
      ms "parse.memo_hits" "count" (Acc.mean acc "parse.memo_hits");
      ms "parse.memo_hit_ratio" "ratio" (hit_ratio "parse");
      ms "parse.backtracks" "count" (Acc.mean acc "parse.backtracks");
      ms "parse.alloc_bytes" "bytes" (Acc.mean acc "parse.alloc_bytes");
      ms "recognize.ms" "ms" (Acc.mean acc "recognize.ms");
      ms "values.share" "ratio"
        (if closure = 0. then 0. else 1. -. (Acc.sum acc "probe.recognize_ns" /. closure));
      ms "output.ms" "ms" (Acc.mean acc "output.ms");
      ms "output.bytes" "bytes" (Acc.mean acc "output.bytes");
      ms "output.alloc_bytes" "bytes" (Acc.mean acc "output.alloc_bytes");
      ms "batch.isolation_ms" "ms" (Acc.mean acc "batch.isolation_ms");
      ms "batch.retries" "count" (Acc.sum acc "batch.retries");
      ms "batch.retry_ms" "ms" (Acc.mean acc "batch.retry_ms");
      ms "batch.fuel_used" "count" (Acc.mean acc "batch.fuel_used");
      ms "batch.memo_degraded" "count" (Acc.sum acc "batch.memo_degraded");
      ms "batch.fail.syntax" "count" (Acc.sum acc "batch.fail.syntax");
      ms "batch.fail.resource" "count" (Acc.sum acc "batch.fail.resource");
      ms "batch.fail.io" "count" (Acc.sum acc "batch.fail.io");
      ms "batch.fail.internal" "count" (Acc.sum acc "batch.fail.internal");
      ms "session.apply_edit_ms" "ms" (mean_ms (( = ) "session.apply_edit"));
      ms "session.reparse_ms" "ms" (mean_ms (( = ) "session.reparse"));
      ms "session.memo_reused" "count" (Acc.mean acc "session.memo_reused");
      ms "session.memo_relocated" "count" (Acc.mean acc "session.memo_relocated");
      ms "session.reuse_ratio" "ratio"
        (Meter.ratio (Acc.mean acc "session.memo_reused") (Acc.mean acc "session.cold_entries"));
      ms "session.cold_fallbacks" "count" (Acc.sum acc "session.cold_fallbacks");
      ms "session.fallback_ms" "ms" (Acc.mean acc "session.fallback_ms");
      ms "gc.alloc_bytes_per_op" "bytes" (Acc.mean acc "gc.alloc_bytes_per_op");
      ms "gc.minor_collections" "count" (Acc.mean acc "gc.minor_collections");
      ms "gc.major_collections" "count" (Acc.mean acc "gc.major_collections");
      ms "gc.promoted_words" "words" (Acc.mean acc "gc.promoted_words");
    ]
  @ per_grammar @ per_batch
