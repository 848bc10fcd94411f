(* The closed loop shared by the workloads: one client, the next
   operation starts when the previous one returns. Whole passes over the
   workload's operation list run until the time is up, at least one
   pass, so every pass measures the same mix of operations. *)

type t = {
  passes : float array list;  (* per pass, each operation's latency in ms *)
  peaks : int list;  (* per pass, the largest major heap seen, in words *)
  distinct : int;  (* operations in one pass *)
}

(* The major heap as of the latest collection. [top_heap_words] cannot
   serve: it is a process-lifetime maximum, so it would report input
   generation and set-up rather than the loop. *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* [pass ~pass record] runs one pass, calling [record ms] once per
   operation in order, and returns the number of operations. Passes are
   numbered from [first]. [between ()] runs after each pass, off the
   clock. Each pass's size, busy and wall time and latency percentiles
   go to stderr. *)
let run ?(first = 0) ~seconds ~between pass =
  Gc.full_major ();
  let passes = ref [] and peaks = ref [] in
  let deadline = Meter.now () + int_of_float (seconds *. 1e9) in
  while !passes = [] || Meter.now () < deadline do
    let t0 = Meter.now () in
    let lat = ref [] and peak = ref (heap_words ()) in
    let n =
      pass ~pass:(first + List.length !passes) (fun ms ->
          lat := ms :: !lat;
          peak := max !peak (heap_words ()))
    in
    let lat = Array.of_list (List.rev !lat) in
    assert (Array.length lat = n);
    Printf.eprintf "pass %d: %d operations, %.1f ms busy of %.1f ms, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n%!"
      (first + List.length !passes) n (Array.fold_left ( +. ) 0. lat)
      (Meter.ms_of_ns (Meter.now () - t0))
      (Meter.percentile lat 50.) (Meter.percentile lat 90.) (Meter.percentile lat 99.);
    passes := lat :: !passes;
    peaks := !peak :: !peaks;
    between ()
  done;
  let passes = List.rev !passes in
  { passes; peaks = List.rev !peaks; distinct = Array.length (List.hd passes) }

let merge a b = { a with passes = a.passes @ b.passes; peaks = a.peaks @ b.peaks }

(* The traced run's two loops in ABBA order, a quarter of the time each —
   untraced, traced, traced, untraced — so that warm-up and drift in the
   machine's speed fall on both sides alike. *)
let abba ~seconds ~between ~untraced ~traced =
  let q = seconds /. 4. in
  let u1 = run ~seconds:q ~between untraced in
  let t1 = run ~seconds:q ~between traced in
  let t2 = run ~first:(List.length t1.passes) ~seconds:q ~between traced in
  let u2 = run ~first:(List.length u1.passes) ~seconds:q ~between untraced in
  (merge u1 u2, merge t1 t2)

(* The untraced loop alone, or with [trace] both loops in ABBA order. *)
let measure ~trace ~seconds ~between ~untraced ~traced =
  if trace then
    let u, t = abba ~seconds ~between ~untraced ~traced in
    (u, Some t)
  else (run ~seconds ~between untraced, None)

(* End-to-end metrics of one loop, and a line saying which tail
   percentile was reported over how many samples. Each timing is taken
   per pass and the median over passes reported, so a burst of
   interference from outside the process moves at most a minority of
   passes; so is the peak heap, whose height depends on when the major
   collector finishes a cycle. Throughput counts only time spent inside
   operations. *)
let end_to_end ~setup_s t =
  let p = Meter.tail_percentile ~distinct:t.distinct in
  let per_pass f = Meter.middle (Array.of_list (List.map f t.passes)) in
  let samples = List.fold_left (fun n a -> n + Array.length a) 0 t.passes in
  ( [
      Meter.metric "setup_s" "s" setup_s;
      Meter.metric "ops_per_s" "1/s"
        (per_pass (fun a ->
             Meter.ratio (float_of_int (Array.length a)) (Array.fold_left ( +. ) 0. a /. 1e3)));
      Meter.metric "latency_p50_ms" "ms" (per_pass (fun a -> Meter.percentile a 50.));
      Meter.metric "latency_tail_ms" "ms" (per_pass (fun a -> Meter.percentile a p));
      Meter.metric "peak_heap_mb" "MB"
        (Meter.middle (Array.of_list (List.map float_of_int t.peaks))
        *. Meter.word_bytes /. 1048576.);
    ],
    Printf.sprintf
      "latency_tail_ms is p%g; timings are medians over %d passes of %d operations (%d samples)"
      p (List.length t.passes) t.distinct samples )

(* --- what a workload reports ------------------------------------------- *)

type report = {
  metrics : Meter.metric list;
  attempted : int;
  failed : int;
  notes : string list;  (* printed above the result line *)
}

(* Operations checked against the reference; the first few mismatches
   are kept with enough detail to find the document again. *)
type tally = { mutable checked : int; mutable mismatched : int; mutable first : string list }

let tally () = { checked = 0; mismatched = 0; first = [] }

let check t ok ~what =
  t.checked <- t.checked + 1;
  if not ok then begin
    t.mismatched <- t.mismatched + 1;
    if List.length t.first < 5 then t.first <- t.first @ [ what () ]
  end

(* Tracing overhead: the traced loop's end-to-end value minus the
   untraced one. *)
let overhead ~untraced ~traced =
  List.filter_map
    (fun (u : Meter.metric) ->
      match List.find_opt (fun (t : Meter.metric) -> t.name = u.name) traced with
      | Some t when u.name <> "setup_s" ->
          Some
            (Printf.sprintf "  %-16s untraced %12.4f  traced %12.4f  overhead %+12.4f %s (%+.1f%%)"
               u.name u.value t.value (t.value -. u.value) u.unit_
               (100. *. Meter.ratio (t.value -. u.value) u.value))
      | _ -> None)
    untraced
