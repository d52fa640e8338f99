(* Campaign benchmark entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 times whole campaigns (Pipeline.run + Pipeline.optimize)
   on the default path with every Obs sink off and prints the
   end-to-end metrics; --trace 1 gives the per-layer profile instead.
   Either way every campaign's output is checked bitwise against the
   exhaustive reference, and the last stdout line is the JSON result.
   Metric definitions are in perfbench/METRICS.md. *)

module Json = Report.Json
module P = Mcdft_core.Pipeline

(* The GC settings `mcdft` applies to every campaign subcommand; must
   be in force before any domain spawns. *)
let minor_heap_words = 1 lsl 22
let space_overhead = 200

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest whole percentile with at least ten campaigns beyond it,
   never below the median: with fewer than 20 campaigns that is the
   median itself. Returns (percentile, seconds). *)
let tail l =
  let n = List.length l in
  let p = int_of_float (Float.of_int (100 * (n - 10)) /. Float.of_int n) in
  if n < 20 || p <= 50 then (50, median l)
  else
    let a = Array.of_list l in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (Float.of_int (p * n) /. 100.0)) in
    (p, a.(max 0 (rank - 1)))

let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM line in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- campaigns and their correctness ---- *)

type outcome = {
  seconds : float;
  run_seconds : float;  (** the Pipeline.run part *)
  minor_words : float;
  major_collections : int;
}

(* Every campaign's verdicts, checked against the reference at the
   end so the reference stays outside every timed region. *)
let attempted = ref 0
let raised = ref 0
let to_check : Check.verdict list list ref = ref []

(* One campaign: each input parsed (zoo-fixed), run and optimized.
   The heap is collected before each input, outside the timed region,
   so every input starts as it would in its own `mcdft` process and
   the peak RSS does not depend on the order of the inputs. *)
let campaign (w : Workload.t) =
  incr attempted;
  let seconds = ref 0.0 and run_s = ref 0.0 in
  let minor = ref 0.0 and major = ref 0 in
  match
    List.map
      (fun inp ->
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        let t0 = Span.now_ns () in
        let bench = Workload.netlist_for_campaign inp in
        let r0 = Span.now_ns () in
        let r = Check.run_one w bench in
        run_s := !run_s +. Span.since r0;
        let rep = P.optimize r in
        seconds := !seconds +. Span.since t0;
        let g1 = Gc.quick_stat () in
        minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
        major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
        Check.verdict r rep)
      w.Workload.inputs
  with
  | verdicts ->
      to_check := verdicts :: !to_check;
      Some
        {
          seconds = !seconds;
          run_seconds = !run_s;
          minor_words = !minor;
          major_collections = !major;
        }
  | exception e ->
      incr raised;
      prerr_endline ("campaign raised: " ^ Printexc.to_string e);
      None

let cells descriptor =
  List.fold_left (fun acc (_, d) -> acc + List.assoc "cells" d) 0 descriptor

(* ---- workload descriptor ---- *)

(* Per input: views, representative views, faults, grid points, cells,
   MNA dimension (largest representative view) and how many
   representative views the Auto back end sends to the sparse solver. *)
let descriptor =
  List.map (fun (v : Layers.views) ->
      let engines = Layers.engines v in
      let n_views = List.length v.Layers.views in
      let n_faults = List.length v.Layers.faults in
      let points = Testability.Grid.n_points v.Layers.grid in
      ( v.Layers.bench.Circuits.Benchmark.name,
        [
          ("views", n_views);
          ("rep_views", List.length v.Layers.rep_views);
          ("faults", n_faults);
          ("grid_points", points);
          ("cells", n_views * n_faults * points);
          ("mna_dim", List.fold_left (fun m (d, _) -> max m d) 0 engines);
          ("sparse_views", List.length (List.filter snd engines));
        ] ))

(* ---- output ---- *)

let metric_json (name, value, unit) =
  (name, Json.Object [ ("value", Json.Number value); ("unit", Json.String unit) ])

let emit ~(w : Workload.t) ~seed ~trace ~descriptor ~extra ~failed ~metrics =
  List.iter
    (fun (name, d) ->
      Printf.printf "descriptor %s: %s\n" name
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) d)))
    descriptor;
  Printf.printf "workload %s seed=%d criterion=%s ppd=%d jobs=%d gc: minor_heap_size=%d words space_overhead=%d\n"
    w.Workload.name seed
    (match w.Workload.criterion with
    | Testability.Detect.Fixed_tolerance e -> Printf.sprintf "fixed:%g" e
    | _ -> "envelope")
    w.Workload.ppd w.Workload.jobs minor_heap_words space_overhead;
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) extra;
  List.iter (fun (n, v, u) -> Printf.printf "%s: %.6g %s\n" n v u) metrics;
  let correct = failed = 0 in
  let file =
    Printf.sprintf "perfbench/out/%s-seed%d-trace%d.json" w.Workload.name seed
      (Bool.to_int trace)
  in
  (try
     if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
     let spans =
       List.map
         (fun (s : Span.t) ->
           Json.Object
             [
               ("id", Json.int s.Span.id);
               ("name", Json.String s.Span.name);
               ("parent", Json.int s.Span.parent);
               ("start_s", Json.Number (Int64.to_float s.Span.start_ns *. 1e-9));
               ("end_s", Json.Number (Int64.to_float s.Span.end_ns *. 1e-9));
               ("workload", Json.String s.Span.workload);
             ])
         (if trace then Span.all () else [])
     in
     let doc =
       Json.Object
         [
           ("workload", Json.String w.Workload.name);
           ("seed", Json.int seed);
           ( "gc",
             Json.Object
               [
                 ("minor_heap_size_words", Json.int minor_heap_words);
                 ("space_overhead", Json.int space_overhead);
               ] );
           ( "descriptor",
             Json.Object
               (List.map
                  (fun (n, d) ->
                    (n, Json.Object (List.map (fun (k, v) -> (k, Json.int v)) d)))
                  descriptor) );
           ("notes", Json.Object (List.map (fun (k, v) -> (k, Json.String v)) extra));
           ("metrics", Json.Object (List.map metric_json metrics));
           ("spans", Json.List spans);
         ]
     in
     let oc = open_out file in
     output_string oc (Json.to_string ~indent:1 doc);
     close_out oc
   with Sys_error e -> prerr_endline ("cannot write " ^ file ^ ": " ^ e));
  print_endline
    (Json.to_string
       (Json.Object
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.int !attempted);
            ("failed", Json.int failed);
            ("metrics", Json.Object (List.map metric_json metrics));
          ]))

(* ---- the two modes ---- *)

let finish_check (w : Workload.t) =
  let reference = Check.reference w in
  let bad =
    List.filter
      (fun got ->
        match Check.mismatches ~reference got with
        | [] -> false
        | l ->
            List.iter prerr_endline l;
            true)
      !to_check
  in
  !raised + List.length bad

let end_to_end (w : Workload.t) ~seed ~seconds ~setup_s =
  let timed = ref [] in
  let t_loop = Span.now_ns () in
  while Span.since t_loop < seconds || !attempted < 4 do
    Option.iter (fun o -> timed := o :: !timed) (campaign w)
  done;
  let peak = peak_rss_mib () in
  let times = List.rev_map (fun o -> o.seconds) !timed in
  let failed = finish_check w in
  let descriptor =
    descriptor (List.map (fun i -> Layers.views w i.Workload.bench) w.Workload.inputs)
  in
  let n = List.length times in
  let p, tail_s = tail times in
  let total_cells = float_of_int (cells descriptor * n) in
  emit ~w ~seed ~trace:false ~descriptor ~failed
    ~extra:
      [
        ("campaigns", string_of_int n);
        ("campaign_seconds", String.concat " " (List.map (Printf.sprintf "%.4f") times));
        ("campaign_s_tail_percentile", Printf.sprintf "p%d of %d campaigns" p n);
        ( "failed_frac",
          Printf.sprintf "%g (%d of %d campaigns)"
            (ratio (float_of_int failed) (float_of_int !attempted))
            failed !attempted );
      ]
    ~metrics:
      [
        ("setup_s", setup_s, "s");
        ("campaign_s_p50", median times, "s");
        ("campaign_s_tail", tail_s, "s");
        ("cells_per_s", ratio total_cells (List.fold_left ( +. ) 0.0 times), "1/s");
        ("peak_rss_mb", peak, "MiB");
      ]

let per_layer (w : Workload.t) ~seed =
  (* whole campaigns, metrics off and on alternately *)
  let off = ref [] and on = ref [] in
  for _ = 1 to 2 do
    Obs.Metrics.set_enabled false;
    Option.iter (fun o -> off := o :: !off) (campaign w);
    Obs.Metrics.set_enabled true;
    Option.iter (fun o -> on := o :: !on) (campaign w)
  done;
  let off_s = median (List.map (fun o -> o.seconds) !off) in
  let on_s = median (List.map (fun o -> o.seconds) !on) in
  let run_s = median (List.map (fun o -> o.run_seconds) !off) in
  let run_on_s = median (List.map (fun o -> o.run_seconds) !on) in
  (* the traced campaign: every layer call in its own span, counted;
     traced_s leaves out the heap collections between inputs, like
     campaign does *)
  Obs.Metrics.set_enabled true;
  incr attempted;
  let traced_s = ref 0.0 in
  let replayed =
    List.map
      (fun inp ->
        Gc.full_major ();
        let t0 = Span.now_ns () in
        let replay =
          Span.with_ ("input " ^ inp.Workload.bench.Circuits.Benchmark.name) @@ fun () ->
          let bench = Span.with_ "spice.parse" (fun () -> Workload.netlist_for_campaign inp) in
          Layers.add "spice.parse_s" (Span.last_duration ());
          let v = Layers.views w bench in
          let verdict, certified = Layers.finish w v in
          (v, verdict, certified)
        in
        traced_s := !traced_s +. Span.since t0;
        replay)
      w.Workload.inputs
  in
  to_check := List.map (fun (_, v, _) -> v) replayed :: !to_check;
  List.iter (fun (v, _, certified) -> Layers.testability w v certified) replayed;
  (* scheduler efficiency: Pipeline.run at jobs=1 and jobs=2 *)
  let time_run jobs =
    Gc.full_major ();
    let t0 = Span.now_ns () in
    let before = Obs.Metrics.snapshot () in
    List.iter
      (fun inp -> ignore (Check.run_one ~jobs w inp.Workload.bench))
      w.Workload.inputs;
    let s = Span.since t0 in
    let after = Obs.Metrics.snapshot () in
    (s, before, after)
  in
  let t1, _, _ = time_run 1 in
  let t2, before, after = time_run 2 in
  let busy (snap : Obs.Metrics.snapshot) =
    match List.assoc_opt "parallel.worker_busy_s" snap.Obs.Metrics.histograms with
    | Some h -> h.Obs.Metrics.sum
    | None -> 0.0
  in
  let count c = float_of_int (Obs.Metrics.counter after c - Obs.Metrics.counter before c) in
  Obs.Metrics.set_enabled false;
  let failed = finish_check w in
  let descriptor = descriptor (List.map (fun (v, _, _) -> v) replayed) in
  let g = Layers.get and t = Span.total in
  let lu = g "testability.lu_s" and th = g "testability.thresholds_s"
  and warm = g "testability.warm_s" in
  let adaptive = t "core.adaptive" in
  let layers_s =
    t "circuit.validate" +. t "multiconfig.transform" +. t "analysis.prune"
    +. t "analysis.certify" +. adaptive
  in
  emit ~w ~seed ~trace:true ~descriptor ~failed
    ~extra:
      [
        ("metrics_off_campaign_s", Printf.sprintf "%.6g (median of %d)" off_s (List.length !off));
        ("metrics_on_campaign_s", Printf.sprintf "%.6g (median of %d)" on_s (List.length !on));
        ("traced_campaign_s", Printf.sprintf "%.6g" !traced_s);
        ("pipeline_run_s_jobs1", Printf.sprintf "%.6g" t1);
        ("pipeline_run_s_jobs2", Printf.sprintf "%.6g" t2);
        ("effective_jobs_2", string_of_int (Util.Parallel.effective_jobs 2));
      ]
    ~metrics:
      [
        ("spice.parse_s", g "spice.parse_s", "s");
        ("circuit.validate_s", t "circuit.validate", "s");
        ("multiconfig.transform_s", t "multiconfig.transform", "s");
        ("analysis.prune_s", t "analysis.prune", "s");
        ("analysis.prune_replicated_frac", ratio (g "analysis.replicated") (g "analysis.views"), "ratio");
        ("analysis.certify_s", t "analysis.certify", "s");
        ("analysis.certify_skipped_frac", ratio (g "certify.solves_skipped") (g "core.rep_points"), "ratio");
        ("testability.lu_s", lu, "s");
        ("testability.thresholds_s", th, "s");
        ("testability.warm_s", warm, "s");
        ("testability.score_s", g "testability.score_s", "s");
        ("fastsim.smw_solves", g "fastsim.smw_solves", "count");
        ("fastsim.smw_solves_thresholds", g "fastsim.smw_solves_thresholds", "count");
        ("fastsim.smw_solves_exhaustive", g "fastsim.smw_solves_exhaustive", "count");
        ("fastsim.full_solves", g "fastsim.full_solves", "count");
        ("fastsim.full_solves_exhaustive", g "fastsim.full_solves_exhaustive", "count");
        ("fastsim.refine_steps", g "fastsim.refine_steps", "count");
        ("mna.fills", g "mna.fills", "count");
        ( "testability.wcache_hit_frac",
          ratio (g "fastsim.wcache_hits") (g "fastsim.wcache_hits" +. g "fastsim.wcache_misses"),
          "ratio" );
        ("core.run_s", run_s, "s");
        ("core.adaptive_s", adaptive, "s");
        ("core.refine_s", adaptive -. (lu +. th +. warm), "s");
        ("core.solved_frac", ratio (g "core.solved") (g "core.rep_points"), "ratio");
        ("adaptive.bisections", g "adaptive.bisections", "count");
        ("core.solve_reduction", ratio (g "fastsim.smw_solves_exhaustive") (g "fastsim.smw_solves"), "x");
        ("core.optimize_s", t "core.optimize", "s");
        ("core.unaccounted_s", run_on_s -. layers_s, "s");
        ("optimizer.subsets_tested", g "optimizer.subsets_tested", "count");
        ("cover.bnb_nodes", g "cover.bnb_nodes", "count");
        ("cover.greedy_gain_evals", g "cover.greedy_gain_evals", "count");
        ( "util.parallel_efficiency",
          ratio (ratio t1 t2) (float_of_int (Util.Parallel.effective_jobs 2)),
          "ratio" );
        ("parallel.chunks", count "parallel.chunks", "count");
        ("parallel.steals", count "parallel.steals", "count");
        ("parallel.worker_busy_s", busy after -. busy before, "s");
        ("gc.minor_words", median (List.map (fun o -> o.minor_words) !off), "words");
        ( "gc.major_collections",
          median (List.map (fun o -> float_of_int o.major_collections) !off),
          "count" );
        ("obs.metrics_on_overhead_frac", ratio on_s off_s -. 1.0, "ratio");
        ("obs.trace_overhead_s", !traced_s -. off_s, "s");
      ]

let () =
  let harness_start = Span.now_ns () in
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words; space_overhead };
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ String.concat ", " Workload.names);
      ("--seed", Arg.Set_int seed, " input seed (0 = registry values)");
      ("--seconds", Arg.Set_float seconds, " how long the timed loop runs");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer profile");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workload.names) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  Span.workload := !workload;
  (* set-up: generate the inputs from the seed (three times, for a
     steady median), then one untimed warm-up campaign *)
  let gens =
    List.init 3 (fun _ ->
        let t0 = Span.now_ns () in
        let w = Span.with_ "setup.inputs" (fun () -> Workload.make ~seed:!seed !workload) in
        (Span.since t0, w))
  in
  let w = snd (List.hd gens) in
  let before_warmup = Span.since harness_start -. List.fold_left (fun a (s, _) -> a +. s) 0.0 gens in
  let t0 = Span.now_ns () in
  ignore (Span.with_ "setup.warmup" (fun () -> campaign w));
  let setup_s = before_warmup +. median (List.map fst gens) +. Span.since t0 in
  if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds ~setup_s
  else per_layer w ~seed:!seed
