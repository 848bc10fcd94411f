(* The full-scan memo-arena splice, kept as the oracle for
   [Memo_arena.edit]: it visits every prefix position, blits the whole
   suffix and recounts the live chunks. [Memo_arena.edit] must return the
   same [(reused, relocated)] and leave the same arena behind. *)

open Rats
open Memo_arena

let edit a ~start ~old_len ~new_len =
  let n = a.idx_len in
  let delta = new_len - old_len in
  let reused = ref 0 and relocated = ref 0 in
  for p = 0 to min (start - 1) (n - 1) do
    let c = a.idx.(p) in
    if c >= 0 then
      if p + a.cmax.(c) <= start then incr reused
      else begin
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
        if !live then incr reused
        else begin
          a.idx.(p) <- -1;
          free_chunk a c
        end
      end
  done;
  let src = start + old_len in
  for p = start to min (src - 1) (n - 1) do
    let c = a.idx.(p) in
    if c >= 0 then begin
      free_chunk a c;
      a.idx.(p) <- -1
    end
  done;
  let n' = n + delta in
  if src < n then begin
    if delta > 0 && Array.length a.idx < n' then begin
      let idx = Array.make (max n' (2 * Array.length a.idx)) (-1) in
      Array.blit a.idx 0 idx 0 n;
      a.idx <- idx
    end;
    Array.blit a.idx src a.idx (src + delta) (n - src);
    Array.fill a.idx start new_len (-1);
    for p = src + delta to n' - 1 do
      if a.idx.(p) >= 0 then begin
        incr reused;
        if delta <> 0 then incr relocated
      end
    done;
    if delta < 0 then Array.fill a.idx n' (n - n') (-1)
  end;
  a.idx_len <- n';
  (!reused, !relocated)
