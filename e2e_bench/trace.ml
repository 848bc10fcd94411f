(* The benchmark's own spans: name, start, end, parent and operation id,
   kept in memory and written out once as a chrome-trace file. Spans are
   recorded around calls into the library's public functions, never
   inside them. Probe spans carry operation id -1. *)

type span = {
  name : string;
  op : int;
  parent : int;  (* index of the enclosing span, -1 at top level *)
  start : int;  (* ns *)
  mutable stop : int;
}

type t = { mutable spans : span array; mutable n : int; mutable open_ : int list }

let create () = { spans = [||]; n = 0; open_ = [] }

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

let current t = match t.open_ with i :: _ -> i | [] -> -1

let enter t name ~op =
  let i = push t { name; op; parent = current t; start = Meter.now (); stop = 0 } in
  t.open_ <- i :: t.open_;
  i

let leave t i =
  t.spans.(i).stop <- Meter.now ();
  match t.open_ with
  | j :: rest when j = i -> t.open_ <- rest
  | _ -> invalid_arg "Trace.leave: spans must nest"

let span t name ~op f =
  let i = enter t name ~op in
  Fun.protect ~finally:(fun () -> leave t i) f

(* A span whose bounds were read elsewhere, e.g. the interval between
   two [Batch.run] record callbacks. *)
let add t name ~op ~start ~stop =
  ignore (push t { name; op; parent = current t; start; stop })

let spans t = Array.sub t.spans 0 t.n
let duration s = s.stop - s.start
let elapsed t i = duration t.spans.(i)

(* Self time: a span's duration minus the time its child spans cover.
   Children of one parent never overlap, so the covered time is the sum
   of their durations. *)
let self_times spans =
  let self = Array.map duration spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) - duration s)
    spans;
  self

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* --- chrome trace ------------------------------------------------------ *)

let write_chrome path spans =
  let oc = open_out path in
  let t0 = if Array.length spans = 0 then 0 else spans.(0).start in
  output_string oc "{\"traceEvents\": [\n";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
         %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"op\": %d, \"parent\": %d}}\n"
        (if i = 0 then "" else ",")
        s.name (layer_of s.name)
        (float_of_int (s.start - t0) /. 1e3)
        (float_of_int (duration s) /. 1e3)
        s.op s.parent)
    spans;
  output_string oc "]}\n";
  close_out oc

(* --- per-layer table --------------------------------------------------- *)

type row = { layer : string; self_ms : float; calls : int; share : float }

(* Per layer: self time and call count inside operation spans, and the
   share of total operation latency. Self time is duration minus child
   spans, so an operation's self times add up to its latency by
   construction; the part no layer span covers is the root's own. *)
let layer_table ~is_root spans =
  let self = self_times spans in
  let by_layer = Hashtbl.create 16 in
  let total_latency = ref 0 and ops = Hashtbl.create 1024 in
  Array.iteri
    (fun i s ->
      if s.op >= 0 then begin
        let l = layer_of s.name in
        let ms, calls = Option.value (Hashtbl.find_opt by_layer l) ~default:(0, 0) in
        Hashtbl.replace by_layer l (ms + self.(i), calls + 1);
        Hashtbl.replace ops s.op ();
        if is_root s.name then total_latency := !total_latency + duration s
      end)
    spans;
  let rows =
    Hashtbl.fold
      (fun layer (ns, calls) acc ->
        {
          layer;
          self_ms = Meter.ms_of_ns ns;
          calls;
          share = Meter.ratio (float_of_int ns) (float_of_int !total_latency);
        }
        :: acc)
      by_layer []
    |> List.sort (fun a b -> Float.compare b.self_ms a.self_ms)
  in
  (rows, Hashtbl.length ops)

let table_lines ~workload rows ~ops =
  [
    Printf.sprintf "per-layer table, workload %s (%d traced operations)" workload ops;
    Printf.sprintf "  %-10s %14s %10s %9s" "layer" "self ms" "calls" "share";
  ]
  @ List.map
      (fun r ->
        Printf.sprintf "  %-10s %14.3f %10d %8.2f%%" r.layer r.self_ms r.calls
          (100. *. r.share))
      rows
  @ [
      "  self time = duration - child spans, so the rows add up to the operations' latency";
    ]
