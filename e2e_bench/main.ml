(* End-to-end benchmark of the user path.

     main.exe --workload batch|edit --seed N --seconds S --trace 0|1

   Runs one workload against the public [Rats] API for S seconds and
   checks every output against an independent reference. It prints notes
   and, as its last line, one JSON object: with --trace 0 the end-to-end
   metrics; with --trace 1 the per-layer metrics of a traced loop, run in
   ABBA order with an untraced one so that the tracing overhead can be
   printed too. Exits 1 when any output disagrees with its reference or
   the allocation counter fails its self-check, 2 on a usage error. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME batch or edit");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or a traced run's per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "batch" -> Batches.run
    | "edit" -> Edit.run
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "; expected batch or edit");
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let alloc_faults = Meter.alloc_self_check () in
  let r = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  print_endline (Meter.gc_settings ());
  List.iter (fun l -> print_endline ("allocation counter self-check failed: " ^ l)) alloc_faults;
  List.iter print_endline r.notes;
  Printf.printf "error_rate: %d of %d operations disagree with the reference (%.4f)\n" r.failed
    r.attempted (Meter.ratio (float_of_int r.failed) (float_of_int r.attempted));
  List.iter
    (fun (m : Meter.metric) -> Printf.printf "  %-32s %16.6f %s\n" m.name m.value m.unit_)
    r.metrics;
  let correct = r.failed = 0 && alloc_faults = [] && r.attempted > 0 in
  print_endline
    (Meter.result_line ~correct ~attempted:r.attempted ~failed:r.failed r.metrics);
  if not correct then exit 1
