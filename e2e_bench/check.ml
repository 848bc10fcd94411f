(* References the outputs are checked against, computed after the timed
   loop so that none of their data is resident while it runs.

   - Verdicts come from the hand-written recursive-descent parsers,
     which share no code with the engines.
   - Trees and error positions come from the unoptimized grammar on
     [Config.packrat]: no optimizer pass, no VM.
   - Trees are compared through a span-free structural fingerprint, so
     no tree is kept while the loop runs. *)

open Rats

let fail_on_errors what = function
  | Ok x -> x
  | Error ds ->
      failwith
        (what ^ ": " ^ String.concat "; " (List.map Diagnostic.to_string ds))

let modules g =
  List.concat_map
    (fun t -> fail_on_errors "modules_of_string" (Rats.modules_of_string t))
    (Inputs.texts g)

let composed g = fail_on_errors "compose" (Rats.compose ~root:(Inputs.root g) (modules g))

(* The reference engine: the composed grammar as written, on the
   textbook packrat configuration. *)
let packrat g =
  fail_on_errors "reference engine"
    (Rats.parser_of ~optimize:false ~config:Config.packrat (composed g))

let render_error text e =
  Parse_error.to_string ~source:(Source.of_string text) e

(* A structural fingerprint of a value that ignores spans, as
   [Value.equal] does: a 63-bit FNV-style hash over the constructors,
   names, labels, strings and characters. It is far cheaper than
   rendering, which takes about 0.4 s for a 200 KB tree. *)
let mix h x = (h lxor x) * 0x100000001b3

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
  !h

let rec fold_value h = function
  | Value.Unit -> mix h 1
  | Chr c -> mix (mix h 2) (Char.code c)
  | Str s -> mix_string (mix h 3) s
  | List vs -> mix (List.fold_left fold_value (mix h 4) vs) 5
  | Node n -> mix (List.fold_left fold_child (mix_string (mix h 6) n.name) n.children) 9

and fold_child h (l, v) =
  fold_value (match l with None -> mix h 7 | Some l -> mix_string (mix h 8) l) v

let fingerprint v = fold_value 0x4bf29ce484222325 v

(* What a parse under test returned: the tree's fingerprint, or the
   error's position and expected set. A batch record carries no
   expected set; its errors have []. *)
type got =
  | Tree of int
  | Error_at of int * string list
  | Tripped of string

let of_result = function
  | Ok v -> Tree (fingerprint v)
  | Error e -> (
      match Parse_error.exhausted_which e with
      | None -> Error_at (e.Parse_error.position, e.expected)
      | Some w -> Tripped (Limits.which_name w))

(* What the references say about one document: the hand-written
   parser's verdict, with the packrat reference's tree or
   farthest-failure position. *)
type expected =
  | Accept of int
  | Reject_at of int
  | Disagree of string  (* the references disagree, or packrat tripped *)

let expected ~packrat g text =
  match (Result.is_ok (Inputs.hand g text), Rats.parse packrat text) with
  | true, Ok v -> Accept (fingerprint v)
  | false, Error e when Parse_error.exhausted_which e = None -> Reject_at e.Parse_error.position
  | true, Error _ -> Disagree "references disagree: hand-written accepts, packrat rejects"
  | false, Ok _ -> Disagree "references disagree: hand-written rejects, packrat accepts"
  | false, Error _ -> Disagree "packrat reference ran out of resources"

(* The expected set is left out: the optimizer may name the
   alternatives it merged differently. *)
let agrees got want =
  match (got, want) with
  | Tree a, Accept b -> a = b
  | Error_at (p, _), Reject_at q -> p = q
  | _ -> false

let describe_got = function
  | Tree h -> Printf.sprintf "accepted, tree fingerprint %x" h
  | Error_at (p, _) -> Printf.sprintf "syntax error at %d" p
  | Tripped w -> "escaped: " ^ w

let describe_expected = function
  | Accept h -> Printf.sprintf "accepted, tree fingerprint %x" h
  | Reject_at p -> Printf.sprintf "syntax error at %d" p
  | Disagree why -> why
