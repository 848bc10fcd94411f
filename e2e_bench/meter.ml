(* Clock, allocation counter, order statistics and the result line.

   The clock is CLOCK_MONOTONIC through bechamel's noalloc stub, read
   by the benchmark itself rather than through any library timer. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

(* Allocation in words, as minor + major - promoted from [Gc.counters].
   Promoted words are counted once in the minor total and again in the
   major one, so subtracting them leaves every word allocated exactly
   once. [Gc.allocated_bytes] is not used: on OCaml 5.1 it misreads any
   window that contains a minor collection, and [Gc.quick_stat]'s
   [minor_words] is stale between collections. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let word_bytes = float_of_int (Sys.word_size / 8)

(* Checks [words] against loops whose allocation is known exactly: small
   blocks that die young across many minor collections, and blocks too
   large for the minor heap, allocated straight into the major heap.
   Returns the failures, each with the expected and measured counts. *)
let alloc_self_check () =
  let case name ~n ~len =
    let w0 = words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Array.make len 0))
    done;
    let measured = words () -. w0 in
    let expected = float_of_int (n * (len + 1)) in
    (* [Gc.counters] itself allocates its result tuple of floats. *)
    if Float.abs (measured -. expected) > 64. then
      Some (Printf.sprintf "%s: expected %.0f words, counted %.0f" name expected measured)
    else None
  in
  List.filter_map Fun.id
    [ case "minor" ~n:400_000 ~len:7; case "major" ~n:2_000 ~len:1_000 ]

(* Nearest-rank percentile of an unsorted sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

(* The median of a few values — passes, set-ups — averaging the middle
   two of an even count. *)
let middle xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0. else if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* The highest of these percentiles with at least ten distinct
   operations beyond it: p99 needs 1,000 of them, p90 needs 100. *)
let tail_percentile ~distinct =
  List.find_opt
    (fun p -> float_of_int distinct *. (100. -. p) >= 1000. -. 1e-6)
    [ 99.9; 99.; 90.; 75.; 50. ]
  |> Option.value ~default:50.

let ratio a b = if b = 0. then 0. else a /. b

(* --- the result line --------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

let gc_settings () =
  let g = Gc.get () in
  Printf.sprintf
    "gc: minor_heap_size=%d words, space_overhead=%d, max_overhead=%d, \
     allocation_policy=%d, window_size=%d, stack_limit=%d (defaults; the \
     benchmark never calls Gc.set)"
    g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.max_overhead
    g.Gc.allocation_policy g.Gc.window_size g.Gc.stack_limit
