(* The low-rank campaign: bitwise identity with the per-view
   reference (Pipeline.run ~adaptive:false) across criteria, back-ends,
   follower models and sizes; exact, jobs-invariant accounting;
   structurally dead views; the CLI summary; the chaos hook. *)

module P = Mcdft_core.Pipeline
module L = Testability.Lowrank
module M = Testability.Matrix
module D = Testability.Detect

let benchmark name =
  match Circuits.Registry.find name with
  | Some b -> b
  | None -> Alcotest.failf "missing benchmark %s" name

let bits m = Array.map (Array.map Int64.bits_of_float) m.M.omega

let check_identical ~what (lowrank : P.t) (reference : P.t) =
  Alcotest.(check (array (array bool)))
    (what ^ ": detect bitwise identical")
    reference.P.matrix.M.detect lowrank.P.matrix.M.detect;
  Alcotest.(check (array (array int64)))
    (what ^ ": omega bitwise identical")
    (bits reference.P.matrix) (bits lowrank.P.matrix)

(* the default campaign against the per-view reference, same arguments *)
let identity ?criterion ?follower_model ?backend ~ppd ~what b =
  let run adaptive =
    P.run_with_stats ?criterion ?follower_model ?backend ~points_per_decade:ppd ~jobs:1
      ~adaptive b
  in
  let t, stats = run true and reference, _ = run false in
  check_identical ~what t reference;
  match stats.P.lowrank with
  | None -> Alcotest.fail (what ^ ": the default campaign carries no low-rank stats")
  | Some s -> s

let test_registry_identity () =
  List.iter
    (fun (b : Circuits.Benchmark.t) ->
      if b.Circuits.Benchmark.name <> "leapfrog5" then
        List.iter
          (fun (tag, criterion) ->
            ignore
              (identity ~criterion ~ppd:4
                 ~what:(b.Circuits.Benchmark.name ^ " " ^ tag)
                 b
                : L.stats))
          [
            ("envelope", P.default_criterion);
            ("fixed:0.1", D.Fixed_tolerance 0.1);
          ])
    (Circuits.Registry.all ())

(* the campaign benchmark's subject and criterion, on a coarse grid *)
let test_leapfrog5_identity () =
  let s = identity ~ppd:3 ~what:"leapfrog5 envelope" (benchmark "leapfrog5") in
  Alcotest.(check bool) "most views decided on the base" true
    (s.L.lowrank_views > s.L.views - 16)

let test_criteria_identity () =
  let b = benchmark "tow-thomas" in
  List.iter
    (fun (tag, criterion) ->
      ignore (identity ~criterion ~ppd:10 ~what:("tow-thomas " ^ tag) b : L.stats))
    [
      ("phase:0.1", D.Phase_fixed 0.1);
      ("phase-envelope", D.Phase_envelope { component_tol = 0.04; floor_rad = 0.02 });
      ( "any-of",
        D.Any_of
          [
            P.default_criterion;
            D.Phase_envelope { component_tol = 0.04; floor_rad = 0.02 };
          ] );
    ]

(* a finite-GBW follower makes the updated rows frequency-dependent *)
let test_single_pole_identity () =
  List.iter
    (fun name ->
      let s =
        identity
          ~follower_model:
            (Circuit.Element.Single_pole { dc_gain = 1e5; pole_hz = 10.0 })
          ~ppd:6 ~what:(name ^ " single-pole followers") (benchmark name)
      in
      Alcotest.(check bool) (name ^ ": views decided on the base") true (s.L.lowrank_views > 0))
    [ "tow-thomas"; "tt-pair" ]

let test_forced_backends_identity () =
  List.iter
    (fun backend ->
      let s =
        identity ~backend ~ppd:8 ~what:"tow-thomas forced back-end" (benchmark "tow-thomas")
      in
      Alcotest.(check bool) "views decided on the base" true (s.L.lowrank_views > 0))
    [ Testability.Fastsim.Dense; Testability.Fastsim.Sparse ]

(* large enough for Auto to pick the sparse base *)
let test_bigladder_identity () =
  let netlist, output =
    Conformance.Gen.bigladder ~stages:60 (Random.State.make [| 0x5bad; 60 |])
  in
  let b =
    {
      Circuits.Benchmark.name = "bigladder-60";
      description = "small RC double ladder";
      netlist;
      source = "V1";
      output;
      center_hz = 10_000.0;
    }
  in
  let s = identity ~ppd:5 ~what:"bigladder-60" b in
  Alcotest.(check bool) "views decided on the base" true (s.L.lowrank_views > 0)

(* ---- structurally dead views ---- *)

let test_dead_views () =
  List.iter
    (fun (b : Circuits.Benchmark.t) ->
      let name = b.Circuits.Benchmark.name in
      let t, stats = P.run_with_stats ~points_per_decade:2 b in
      let dead = stats.P.dead_views in
      Alcotest.(check int)
        (name ^ ": structurally dead views")
        (if name = "leapfrog5" then 64 else 0)
        (List.length dead);
      Array.iteri
        (fun i (v : M.view) ->
          if List.mem v.M.label dead then begin
            Alcotest.(check bool)
              (name ^ " " ^ v.M.label ^ ": nothing detected")
              false
              (Array.exists Fun.id t.P.matrix.M.detect.(i));
            Alcotest.(check bool)
              (name ^ " " ^ v.M.label ^ ": omega 0")
              true
              (Array.for_all (fun w -> w = 0.0) t.P.matrix.M.omega.(i))
          end)
        t.P.matrix.M.views)
    (Circuits.Registry.all ())

(* ---- accounting ---- *)

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was)
    f

(* leapfrog5 at 30 points per decade, the campaign benchmark's
   workload: one base factorization per frequency, one capacitance
   solve per (live view, frequency), two O(1) points per (view, fault
   or drift, frequency) and 121 fills for each of the fifteen per-view
   fallbacks — the same at every worker count. *)
let test_leapfrog5_counters () =
  let b = benchmark "leapfrog5" in
  let counters jobs =
    with_metrics (fun () ->
        ignore (P.run ~points_per_decade:30 ~jobs b : P.t);
        let snap = Obs.Metrics.snapshot () in
        List.map
          (fun c -> (c, Obs.Metrics.counter snap c))
          [
            "campaign.dead_views";
            "lowrank.base_factors";
            "lowrank.capacitance_solves";
            "lowrank.points_thresholds";
            "lowrank.points_faults";
            "lowrank.fallback_views";
            "mna.fills";
          ])
  in
  let expected =
    [
      ("campaign.dead_views", 64);
      ("lowrank.base_factors", 121);
      ("lowrank.capacitance_solves", 23111);
      ("lowrank.points_thresholds", 508442);
      ("lowrank.points_faults", 508442);
      ("lowrank.fallback_views", 15);
      ("mna.fills", 121 + (15 * 121));
    ]
  in
  Alcotest.(check (list (pair string int))) "jobs:1" expected (counters 1);
  Alcotest.(check (list (pair string int))) "jobs:2" expected (counters 2)

(* ---- CLI surface ---- *)

let test_cli_summary_line () =
  let file = "tmp_lowrank_summary.txt" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/mcdft.exe matrix tow-thomas --points-per-decade 4 > %s 2>&1"
         file)
  in
  let out = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  Alcotest.(check int) "exit 0" 0 code;
  let lines = String.split_on_char '\n' out in
  match List.find_opt (String.starts_with ~prefix:"low-rank campaign:") lines with
  | None -> Alcotest.fail "no low-rank summary line in matrix output"
  | Some l -> (
      match
        Scanf.sscanf l
          "low-rank campaign: %d of %d live views on %d base factorizations, %d \
           capacitance solves, %d threshold + %d fault points; %d structurally \
           dead, %d per-view fallback"
          (fun lowrank views factors caps thr faults dead fallbacks ->
            (lowrank, views, factors, caps, thr, faults, dead, fallbacks))
      with
      | exception (Scanf.Scan_failure _ | End_of_file) ->
          Alcotest.failf "summary line does not parse: %s" l
      | lowrank, views, factors, caps, thr, faults, dead, fallbacks ->
          (* tow-thomas: 7 views, 8 faults, 4 ppd over 4 decades *)
          let points = 17 in
          Alcotest.(check int) "every view accounted for" views (lowrank + fallbacks);
          Alcotest.(check int) "one factorization per frequency" points factors;
          Alcotest.(check int) "one capacitance solve per (view, frequency)"
            (views * points) caps;
          Alcotest.(check int) "one point per (view, fault, frequency)"
            (views * 8 * points) faults;
          Alcotest.(check int) "one point per (view, drift, frequency)"
            (views * 8 * points) thr;
          Alcotest.(check int) "no dead view" 0 dead;
          Alcotest.(check int) "fallbacks listed one per line" fallbacks
            (List.length
               (List.filter (String.starts_with ~prefix:"  per-view fallback ") lines)))

let test_optimize_json_totals () =
  let file = "tmp_lowrank_optimize.json" in
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/mcdft.exe optimize tow-thomas --points-per-decade 4 --json > %s 2>&1" file)
  in
  let text = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  Alcotest.(check int) "exit 0" 0 code;
  match Report.Json.of_string text with
  | Error e -> Alcotest.failf "optimize --json does not parse: %s" e
  | Ok json -> (
      let ( |> ) j k = Option.bind j (Report.Json.member k) in
      match Some json |> "campaign" |> "lowrank" |> "base_factors" with
      | Some (Report.Json.Number n) ->
          Alcotest.(check (float 0.0)) "base factorizations" 17.0 n
      | _ -> Alcotest.fail "no campaign.lowrank.base_factors")

(* ---- the chaos hook is caught ---- *)

(* An active subject with several opamps has views with row updates,
   so every one of them runs a capacitance solve. *)
let test_chaos_caught () =
  let oracle = Option.get (Conformance.Oracle.find "lowrank-vs-per-view") in
  let run s chaos =
    Testability.Lowrank.set_chaos chaos;
    Fun.protect
      ~finally:(fun () -> Testability.Lowrank.set_chaos `None)
      (fun () -> Conformance.Oracle.run oracle s)
  in
  let caught = ref 0 and healthy = ref 0 in
  for seed = 0 to 20 do
    let s = Conformance.Gen.generate Conformance.Gen.Active_chain ~seed in
    if List.length (Circuit.Netlist.opamps s.Conformance.Gen.netlist) >= 2 then
      match run s `None with
      | Conformance.Oracle.Pass -> (
          incr healthy;
          match run s (`Capacitance_scale 1.001) with
          | Conformance.Oracle.Fail _ -> incr caught
          | v ->
              Alcotest.failf "%s: perturbed capacitance solve not caught: %s"
                s.Conformance.Gen.label (Conformance.Oracle.verdict_to_string v))
      | v ->
          Alcotest.failf "%s: healthy engine flagged: %s" s.Conformance.Gen.label
            (Conformance.Oracle.verdict_to_string v)
  done;
  Alcotest.(check bool) "some multi-opamp subject exercised" true (!healthy > 0);
  Alcotest.(check int) "every perturbation caught" !healthy !caught

let suite =
  [
    Alcotest.test_case "low-rank = per-view across the registry" `Quick
      test_registry_identity;
    Alcotest.test_case "low-rank = per-view on leapfrog5" `Quick test_leapfrog5_identity;
    Alcotest.test_case "low-rank = per-view under phase and any-of" `Quick
      test_criteria_identity;
    Alcotest.test_case "low-rank = per-view with single-pole followers" `Quick
      test_single_pole_identity;
    Alcotest.test_case "low-rank = per-view on forced back-ends" `Quick
      test_forced_backends_identity;
    Alcotest.test_case "low-rank = per-view on a small bigladder" `Quick
      test_bigladder_identity;
    Alcotest.test_case "structurally dead views" `Quick test_dead_views;
    Alcotest.test_case "leapfrog5 counters, jobs 1 and 2" `Quick test_leapfrog5_counters;
    Alcotest.test_case "CLI low-rank summary line parses and adds up" `Quick
      test_cli_summary_line;
    Alcotest.test_case "optimize --json reports the low-rank totals" `Quick
      test_optimize_json_totals;
    Alcotest.test_case "perturbed capacitance solve is caught" `Quick test_chaos_caught;
  ]
