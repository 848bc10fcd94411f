open Rats_peg

type t = {
  mutable idx : int array;
  mutable idx_len : int;
  mutable res : int array;
  mutable vers : int array;
  mutable exts : int array;
  mutable cmax : int array;
  mutable vals : Value.t array;
  mutable cap : int;
  mutable used : int;
  mutable free : int array;
  mutable nfree : int;
  mutable max_ext : int;
  nslots : int;
  nvslots : int;
  vmap : int array;
}

let create ~nslots ~vmap =
  if Array.length vmap <> nslots then invalid_arg "Memo_arena.create";
  let nvslots = Array.fold_left (fun n v -> if v >= 0 then n + 1 else n) 0 vmap in
  {
    idx = [||];
    idx_len = -1;
    res = [||];
    vers = [||];
    exts = [||];
    cmax = [||];
    vals = [||];
    cap = 0;
    used = 0;
    free = [||];
    nfree = 0;
    max_ext = 0;
    nslots;
    nvslots;
    vmap;
  }

(* Geometric growth keeps claiming amortized O(nslots); rows for
   chunks beyond [used] are garbage and never read. *)
let grow_chunks a =
  let cap = max 64 (2 * a.cap) in
  let copy width src fill =
    let dst = Array.make (cap * width) fill in
    Array.blit src 0 dst 0 (a.used * width);
    dst
  in
  a.res <- copy a.nslots a.res 0;
  a.vers <- copy a.nslots a.vers 0;
  a.exts <- copy a.nslots a.exts 0;
  a.vals <- copy a.nvslots a.vals Value.Unit;
  let cmax = Array.make cap 0 in
  Array.blit a.cmax 0 cmax 0 a.used;
  a.cmax <- cmax;
  a.cap <- cap

let release_values a =
  if a.nvslots > 0 && a.used > 0 then
    Array.fill a.vals 0 (a.used * a.nvslots) Value.Unit;
  a.used <- 0;
  a.nfree <- 0;
  a.max_ext <- 0;
  a.idx_len <- -1

let reset a ~len =
  let n = len + 1 in
  if Array.length a.idx < n then
    a.idx <- Array.make (max n (2 * Array.length a.idx)) (-1)
  else Array.fill a.idx 0 (Array.length a.idx) (-1);
  release_values a;
  a.idx_len <- n

let alloc a pos =
  let c =
    if a.nfree > 0 then (
      a.nfree <- a.nfree - 1;
      a.free.(a.nfree))
    else (
      if a.used = a.cap then grow_chunks a;
      let c = a.used in
      a.used <- c + 1;
      c)
  in
  Array.fill a.res (c * a.nslots) a.nslots 0;
  a.cmax.(c) <- 0;
  a.idx.(pos) <- c;
  c

let set_ext a c base ext =
  a.exts.(base) <- ext;
  if ext > a.cmax.(c) then a.cmax.(c) <- ext;
  if ext > a.max_ext then a.max_ext <- ext

let free_chunk a c =
  if a.nvslots > 0 then Array.fill a.vals (c * a.nvslots) a.nvslots Value.Unit;
  if a.nfree = Array.length a.free then (
    let free = Array.make (max 64 (2 * a.nfree)) 0 in
    Array.blit a.free 0 free 0 a.nfree;
    a.free <- free);
  a.free.(a.nfree) <- c;
  a.nfree <- a.nfree + 1

let edit a ~start ~old_len ~new_len =
  let n = a.idx_len in
  let delta = new_len - old_len in
  (* Prefix: an entry survives iff its computation examined nothing past
     [start]. No entry's extent exceeds [max_ext], so chunks before
     [start - max_ext] survive whole and only this window is scanned;
     cmax skips the slot scan for whole chunks inside it. *)
  for p = max 0 (start - a.max_ext) to min (start - 1) (n - 1) do
    let c = a.idx.(p) in
    if c >= 0 && p + a.cmax.(c) > start then begin
      let live = ref false and m = ref 0 in
      let base = c * a.nslots in
      for sl = 0 to a.nslots - 1 do
        if a.res.(base + sl) <> 0 then
          if p + a.exts.(base + sl) > start then begin
            a.res.(base + sl) <- 0;
            let v = a.vmap.(sl) in
            if v >= 0 then a.vals.((c * a.nvslots) + v) <- Value.Unit
          end
          else begin
            live := true;
            if a.exts.(base + sl) > !m then m := a.exts.(base + sl)
          end
      done;
      a.cmax.(c) <- !m;
      if not !live then begin
        a.idx.(p) <- -1;
        free_chunk a c
      end
    end
  done;
  (* Replaced region: those chunks cannot survive. *)
  let src = start + old_len in
  for p = start to min (src - 1) (n - 1) do
    let c = a.idx.(p) in
    if c >= 0 then begin
      free_chunk a c;
      a.idx.(p) <- -1
    end
  done;
  let n' = n + delta in
  let relocated = ref 0 in
  if delta <> 0 then begin
    if delta > 0 && Array.length a.idx < n' then begin
      let idx = Array.make (max n' (2 * Array.length a.idx)) (-1) in
      Array.blit a.idx 0 idx 0 n;
      a.idx <- idx
    end;
    (* Move the suffix by [delta] with an int loop (a blit of an
       old-generation array pays a write barrier per cell), copying away
       from the overlap and clearing each vacated cell; every cell the
       move leaves behind lies in the new text or past [n']. *)
    let idx = a.idx in
    let move p =
      let c = idx.(p) in
      if c >= 0 then begin
        incr relocated;
        idx.(p + delta) <- c;
        idx.(p) <- -1
      end
    in
    if delta > 0 then
      for p = n - 1 downto src do
        move p
      done
    else
      for p = src to n - 1 do
        move p
      done
  end;
  a.idx_len <- n';
  (a.used - a.nfree, !relocated)
