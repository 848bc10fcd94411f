(* Seeded inputs. Everything here runs before timing; the program under
   test only ever sees the generated text. *)

open Rats

type grammar = Calc | Json | Minijava

let name = function
  | Calc -> "calc"
  | Json -> "json"
  | Minijava -> "minijava"

let texts = function
  | Calc -> Grammars.Calc.texts
  | Json -> Grammars.Json.texts
  | Minijava -> Grammars.Minijava.texts

let root = function
  | Calc -> "calc.Main"
  | Json -> "json.Main"
  | Minijava -> "j.Program"

let hand = function
  | Calc -> Grammars.Calc.parse_hand
  | Json -> Grammars.Json.parse_hand
  | Minijava -> Grammars.Minijava.parse_hand

(* Generator size parameter per byte of output, roughly; [doc] corrects
   the guess against the generated length. *)
let bytes_per_unit = function
  | Calc -> 4.9
  | Json -> 7.0
  | Minijava -> 920.

let generate g rng units =
  match g with
  | Calc -> Grammars.Corpus.arith rng ~size:units
  | Json -> Grammars.Corpus.json rng ~size:units
  | Minijava -> Grammars.Corpus.minijava rng ~classes:units

(* A document of about [bytes] bytes, drawn from [rng]: the size
   parameter is refined twice against the length actually generated,
   each attempt from the same generator state, so the result depends
   only on [rng]'s state and the target. *)
let doc g rng ~bytes =
  let sub = Rng.create (Int64.to_int (Rng.next rng)) in
  let attempt units =
    let d = generate g (Rng.copy sub) (max 1 units) in
    (d, String.length d)
  in
  let refine (units, (_, len)) =
    let units' =
      int_of_float (Float.round (float_of_int units *. float_of_int bytes /. float_of_int (max 1 len)))
    in
    let units' = max 1 units' in
    (units', attempt units')
  in
  let u0 = max 1 (int_of_float (float_of_int bytes /. bytes_per_unit g)) in
  let _, (d, _) = refine (refine (u0, attempt u0)) in
  d

(* Sizes spread log-uniformly over [lo, hi] on a stratified grid: one
   size per stratum, at its midpoint. Seeds then differ in the
   documents' contents and order, not in how much text a run parses,
   so runs with different seeds stay comparable. *)
let log_grid ~lo ~hi n =
  Array.init n (fun k ->
      let u = (float_of_int k +. 0.5) /. float_of_int n in
      int_of_float (float_of_int lo *. Float.pow (float_of_int hi /. float_of_int lo) u))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* --- batch ------------------------------------------------------------- *)

(* Truncate the document or change one byte, at a seeded position. *)
let mutate rng d =
  let n = String.length d in
  if n < 2 then d
  else
    let at = 1 + Rng.int rng (n - 1) in
    if Rng.bool rng then String.sub d 0 at
    else
      String.mapi
        (fun i c ->
          if i = at then
            Rng.pick rng [| '('; ')'; '{'; '}'; '['; ']'; ','; ':'; '+'; '*'; '"'; 'x'; '7'; ' ' |]
          else c)
        d

type stream = { sg : grammar; docs : (string * string) list; mutated : int }

(* [n] documents from 300 B to 10 KB on a log grid, seeded order; a
   seeded 5% of them mutated. *)
let stream ~seed g ~n =
  let rng = Rng.create ((seed * 7919) + Hashtbl.hash (name g)) in
  let sizes = log_grid ~lo:300 ~hi:10_240 n in
  shuffle rng sizes;
  let marked = Array.init n (fun i -> i < n / 20) in
  shuffle rng marked;
  let docs =
    List.init n (fun i ->
        let d = doc g rng ~bytes:sizes.(i) in
        let d = if marked.(i) then mutate rng d else d in
        (Printf.sprintf "%s-%04d" (name g) i, d))
  in
  { sg = g; docs; mutated = n / 20 }

(* --- edit -------------------------------------------------------------- *)

(* The session document: a generated MiniJava program without its first
   derived class, C0. C0 is the only class whose field initializers run
   with no local variable in scope, where the generator's known defect
   emits [<int>.length] or [<int>[...]]: on about one seed in five the
   whole program is then rejected at C0 and every reparse fails within
   its first kilobyte, which measures nothing about sessions. Dropping
   C0 is done on every seed, whatever it contains, and the workload
   prints whether the whole program is accepted, so the defect stays
   visible. *)
let session_doc ~seed ~bytes =
  let d = doc Minijava (Rng.create (seed * 104729 + 17)) ~bytes in
  let find sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length d then None
      else if String.sub d i n = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  match (find "class C0 extends", find "class C1 extends") with
  | Some a, Some b -> (d, String.sub d 0 a ^ String.sub d b (String.length d - b))
  | _ -> (d, d)

type edit = { start : int; old_len : int; replacement : string }

let apply text e =
  String.sub text 0 e.start ^ e.replacement
  ^ String.sub text (e.start + e.old_len) (String.length text - e.start - e.old_len)

let keywords =
  [ "boolean"; "class"; "double"; "else"; "extends"; "false"; "for"; "if";
    "int"; "char"; "long"; "new"; "null"; "return"; "static"; "this"; "true";
    "void"; "while" ]

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_id_char c = is_id_start c || (c >= '0' && c <= '9')
let is_nonzero_digit c = c >= '1' && c <= '9'

(* Scan forward (wrapping) from a seeded position, after the leading
   comment line and within the fraction [lo, hi) of the rest, to the
   first position satisfying [ok]. *)
let seek ?(lo = 0.) ?(hi = 1.) rng text ok =
  let n = String.length text in
  let first = match String.index_opt text '\n' with Some i -> i + 1 | None -> 0 in
  let span = n - first in
  let at f = int_of_float (f *. float_of_int span) in
  let start = first + at lo + Rng.int rng (max 1 (at hi - at lo)) in
  let rec go k =
    if k >= span then None
    else
      let i = first + ((start - first + k) mod span) in
      if ok i then Some i else go (k + 1)
  in
  go 0

(* A nonzero digit becomes another nonzero digit: same length, and no
   new leading zero. *)
let digit_edit rng text =
  seek rng text (fun i -> is_nonzero_digit text.[i])
  |> Option.map (fun i ->
         let d = Char.chr (Char.code '1' + ((Char.code text.[i] - Char.code '1' + 1 + Rng.int rng 8) mod 9)) in
         { start = i; old_len = 1; replacement = String.make 1 d })

(* An identifier that is not a keyword gets a longer or shorter name. *)
let rename_edit rng text =
  let n = String.length text in
  seek rng text (fun i -> is_id_start text.[i] && (i = 0 || not (is_id_char text.[i - 1])))
  |> Fun.flip Option.bind (fun i ->
         let j = ref i in
         while !j < n && is_id_char text.[!j] do incr j done;
         let w = String.sub text i (!j - i) in
         if List.mem w keywords then None
         else
           let w' =
             if String.length w > 3 && Rng.bool rng then String.sub w 0 (String.length w - 1)
             else w ^ Rng.pick rng [| "q"; "_r"; "z9" |]
           in
           Some { start = i; old_len = String.length w; replacement = w' })

(* Statements are inserted after a statement that ends a line inside a
   method body (indented two levels or more) and is not followed by
   [else], and only statements the script inserted are deleted again, so
   every such edit keeps the program valid. *)
let marker = "ins_"

let followed_by_else text i =
  let n = String.length text in
  let j = ref i in
  while !j < n && (text.[!j] = ' ' || text.[!j] = '\n') do incr j done;
  !j + 4 <= n && String.sub text !j 4 = "else"

let insert_edit ?lo ?hi rng text ~k =
  seek ?lo ?hi rng text (fun i ->
      text.[i] = ';' && i + 1 < String.length text && text.[i + 1] = '\n'
      && (let ls = try String.rindex_from text i '\n' + 1 with Not_found -> 0 in
          i - ls > 4 && String.sub text ls 4 = "    ")
      && not (followed_by_else text (i + 1)))
  |> Option.map (fun i ->
         { start = i + 1; old_len = 0;
           replacement = Printf.sprintf "\n    %s%d = %d;" marker k (Rng.int rng 1000) })

let delete_edit rng text =
  let n = String.length text in
  let m = String.length marker in
  seek rng text (fun i ->
      i + m < n && String.sub text i m = marker && i >= 5 && text.[i - 5] = '\n')
  |> Option.map (fun i ->
         let stop = String.index_from text i ';' in
         { start = i - 5; old_len = stop + 1 - (i - 5); replacement = "" })

(* A byte that breaks the program, inserted at a line start inside a
   method body. Breaks land in the middle tenth of the document: the
   reparse after one falls back to a cold parse that stops at the
   break, and a fixed place keeps that cost alike from seed to seed. *)
let break_edit rng text =
  insert_edit ~lo:0.45 ~hi:0.55 rng text ~k:0
  |> Option.map (fun e -> { start = e.start; old_len = 0; replacement = "#" })

type script = { edits : edit array; breaking : int }

(* [n] edits: one in fifty breaks the buffer and the very next edit
   repairs it; the rest rewrite digits, rename identifiers, or insert or
   delete statements, in about equal shares, anywhere. *)
let script ~seed text ~n =
  let rng = Rng.create (seed * 31337 + 5) in
  let breaks = Array.init (n / 2) (fun i -> i < n / 50) in
  shuffle rng breaks;
  let text = ref text and out = ref [] in
  let push e =
    text := apply !text e;
    out := e :: !out
  in
  let rec one () =
    let e =
      match Rng.int rng 4 with
      | 0 -> digit_edit rng !text
      | 1 -> rename_edit rng !text
      | 2 -> insert_edit rng !text ~k:(List.length !out)
      | _ -> (
          match delete_edit rng !text with
          | Some e -> Some e
          | None -> insert_edit rng !text ~k:(List.length !out))
    in
    match e with Some e -> push e | None -> one ()
  in
  (* Edits come in pairs; a breaking pair is the break and its repair. *)
  Array.iter
    (fun broken ->
      if broken then
        match break_edit rng !text with
        | Some b ->
            push b;
            push { start = b.start; old_len = 1; replacement = "" }
        | None -> one (); one ()
      else begin
        one ();
        one ()
      end)
    breaks;
  { edits = Array.of_list (List.rev !out); breaking = n / 50 }
