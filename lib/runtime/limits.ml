type t = {
  fuel : int;
  max_depth : int;
  max_memo_bytes : int;
  max_input_bytes : int;
}

let unlimited =
  {
    fuel = max_int;
    max_depth = max_int;
    max_memo_bytes = max_int;
    max_input_bytes = max_int;
  }

let hardened =
  {
    fuel = 5_000_000;
    max_depth = 1_024;
    max_memo_bytes = 64 * 1024 * 1024;
    max_input_bytes = 8 * 1024 * 1024;
  }

let v ?(fuel = max_int) ?(max_depth = max_int) ?(max_memo_bytes = max_int)
    ?(max_input_bytes = max_int) () =
  { fuel; max_depth; max_memo_bytes; max_input_bytes }

let is_unlimited t =
  t.fuel = max_int && t.max_depth = max_int && t.max_memo_bytes = max_int
  && t.max_input_bytes = max_int

type which = Fuel | Depth | Memory | Input | Deadline

let which_name = function
  | Fuel -> "fuel"
  | Depth -> "depth"
  | Memory -> "memory"
  | Input -> "input"
  | Deadline -> "deadline"

let which_message = function
  | Fuel -> "fuel budget exhausted"
  | Depth -> "recursion depth limit exceeded"
  | Memory -> "memory limit exceeded"
  | Input -> "input longer than the configured limit"
  | Deadline -> "deadline passed"

let pp_which ppf w = Format.pp_print_string ppf (which_name w)

(* Approximate byte cost of memo storage. The model predates the arena
   (it priced a chunk as three boxed nslots-word arrays plus headers)
   and its VALUES ARE LOAD-BEARING: governed runs degrade at fixed
   decision points, and the batch ladder's budgets and the committed
   bench counters depend on them. The arena's flat rows
   cost about the same per chunk anyway; do not "recalibrate" without
   versioning the budget semantics. A hash-table entry is the key, the
   boxed tuple and its bucket. *)
let chunk_cost ?(value_slots = 0) nslots =
  48 + (24 * nslots) + (24 * value_slots)
let table_entry_cost = 64

let field ppf name v =
  if v = max_int then Format.fprintf ppf " %s=∞" name
  else Format.fprintf ppf " %s=%d" name v

let pp ppf t =
  if is_unlimited t then Format.pp_print_string ppf "unlimited"
  else (
    Format.pp_print_string ppf "limits";
    field ppf "fuel" t.fuel;
    field ppf "depth" t.max_depth;
    field ppf "memo-bytes" t.max_memo_bytes;
    field ppf "input-bytes" t.max_input_bytes)

let describe t = Format.asprintf "%a" pp t
