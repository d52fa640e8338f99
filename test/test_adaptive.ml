(* Properties of the coverage-directed refinement (Mcdft_core.Adaptive)
   and the tolerance-space coverage estimator (Montecarlo.coverage_run).

   The qcheck properties drive Refine.row against synthetic truth rows
   whose margins obey the slope bound the refinement assumes — a
   random Lipschitz walk in the log deviation-to-threshold ratio. On
   such rows the skip rule is provably sound, so the refined row must
   reproduce the truth byte for byte, and an isolated flip can never
   be inferred from its neighbours and must appear in the solved set.
   The end-to-end cases then pin the same invariant on the real
   engine. *)

module A = Mcdft_core.Adaptive
module P = Mcdft_core.Pipeline

(* ---- synthetic truth rows with slope-bounded margins ---- *)

type row = {
  nf : int;
  stride : int;
  step_dec : float;
  guard : float;
  margins : float array;
}

let gen_row seed =
  let rng = Random.State.make [| seed |] in
  let nf = 2 + Random.State.int rng 120 in
  let stride = 1 + Random.State.int rng 8 in
  let step_dec = 0.01 +. Random.State.float rng 0.2 in
  let guard = 4.0 +. Random.State.float rng 12.0 in
  let margins = Array.make nf 0.0 in
  margins.(0) <- Random.State.float rng 6.0 -. 3.0;
  for i = 1 to nf - 1 do
    (* increments strictly inside the slope bound so float rounding in
       the walk cannot graze the skip test's strict inequality *)
    let slope = 0.999 *. guard *. step_dec in
    margins.(i) <- margins.(i - 1) +. (Random.State.float rng (2.0 *. slope)) -. slope
  done;
  (* keep every margin away from zero: the byte is its sign *)
  Array.iteri
    (fun i m -> if Float.abs m < 1e-9 then margins.(i) <- 1e-6)
    margins;
  { nf; stride; step_dec; guard; margins }

let byte_of r i = if r.margins.(i) > 0.0 then 'd' else 'u'

let refine ?(certified = fun _ -> '?') r =
  A.Refine.row ~nf:r.nf ~stride:r.stride ~step_dec:r.step_dec ~guard:r.guard
    ~steer_range:(fun _ _ -> 0.0)
    ~certified
    ~solve:(fun i -> (byte_of r i, r.margins.(i)))

let row_matches r (o : A.Refine.outcome) =
  let ok = ref true in
  for i = 0 to r.nf - 1 do
    if Bytes.get o.A.Refine.verdicts i <> byte_of r i then ok := false
  done;
  !ok

let qcheck_refined_row_exact =
  QCheck.Test.make
    ~name:"Refine.row reproduces Lipschitz truth rows; isolated flips are solved"
    ~count:500
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let r = gen_row seed in
      let o = refine r in
      if not (row_matches r o) then false
      else begin
        (* a point disagreeing with both neighbours cannot be filled
           from any interval endpoints — it must have been solved *)
        let solved_ok = ref true in
        for i = 1 to r.nf - 2 do
          if
            byte_of r i <> byte_of r (i - 1)
            && byte_of r i <> byte_of r (i + 1)
            && not (List.mem i o.A.Refine.solved)
          then solved_ok := false
        done;
        !solved_ok
      end)

let qcheck_certified_anchors_never_solved =
  QCheck.Test.make
    ~name:"certified anchors seed the refinement and are never re-solved"
    ~count:500
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let r = gen_row seed in
      let rng = Random.State.make [| seed + 7 |] in
      let cert = Array.init r.nf (fun _ -> Random.State.int rng 3 = 0) in
      let certified i = if cert.(i) then byte_of r i else '?' in
      let o = refine ~certified r in
      row_matches r o
      && List.for_all (fun i -> not cert.(i)) o.A.Refine.solved)

(* ---- end-to-end: adaptive campaign = exhaustive pipeline ----

   Pipeline.run no longer drives Adaptive.build, so the adaptive
   campaign runs on the pipeline's own views, grid and faults and is
   held to the pipeline's exhaustive matrices. *)

let check_identical ~what criterion =
  let b = Circuits.Tow_thomas.make () in
  let exhaustive = P.run ~criterion ~points_per_decade:6 ~jobs:1 ~adaptive:false b in
  let me = exhaustive.P.matrix in
  let ma, s =
    A.build ~criterion ~jobs:1 exhaustive.P.grid
      (Array.to_list me.Testability.Matrix.views)
      exhaustive.P.faults
  in
  Alcotest.(check bool)
    (what ^ ": detect bitwise identical")
    true
    (ma.Testability.Matrix.detect = me.Testability.Matrix.detect);
  Alcotest.(check bool)
    (what ^ ": omega bitwise identical")
    true
    (ma.Testability.Matrix.omega = me.Testability.Matrix.omega);
  Alcotest.(check int)
    (what ^ ": points = certified + solved + skipped")
    s.A.points
    (s.A.certified + s.A.solved + s.A.skipped);
  s

let test_pipeline_identity_envelope () =
  let s = check_identical ~what:"envelope" P.default_criterion in
  Alcotest.(check bool) "some points skipped" true (s.A.skipped > 0)

let test_pipeline_identity_fixed () =
  let s =
    check_identical ~what:"fixed" (Testability.Detect.Fixed_tolerance 0.10)
  in
  Alcotest.(check bool) "some points skipped" true (s.A.skipped > 0)

let test_pipeline_identity_phase () =
  let s = check_identical ~what:"phase" (Testability.Detect.Phase_fixed 0.1) in
  Alcotest.(check bool) "some points skipped" true (s.A.skipped > 0)

(* leapfrog5 under the phase envelope at 30 points per decade: in
   these eight configurations the fault RI6b+20% moves an undamped
   resonance by one grid step, so the phase deviation is π at exactly
   one grid point and round-off (margins of −∞ or ~−33 nepers)
   everywhere else. A slope bound on the phase margin alone skipped
   that point; the chord bound of {!Testability.Detect.point_margin}
   must find it, and the adaptive matrices must equal the exhaustive
   ones bit for bit. *)
let test_phase_envelope_resonance_identity () =
  let b = Circuits.Leapfrog.make () in
  let source = b.Circuits.Benchmark.source and output = b.Circuits.Benchmark.output in
  let dft = Multiconfig.Transform.make ~source ~output b.Circuits.Benchmark.netlist in
  let labels = [ "C65"; "C73"; "C81"; "C89"; "C193"; "C201"; "C209"; "C217" ] in
  let views =
    List.filter_map
      (fun config ->
        let label = Multiconfig.Configuration.label config in
        if List.mem label labels then
          Some
            { Testability.Matrix.label;
              netlist = Multiconfig.Transform.emulate dft config;
              probe = { Testability.Detect.source; output } }
        else None)
      (Multiconfig.Transform.test_configurations dft)
  in
  Alcotest.(check int) "all eight views found" (List.length labels) (List.length views);
  let grid =
    Testability.Grid.around ~points_per_decade:30
      ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let faults = Fault.deviation_faults b.Circuits.Benchmark.netlist in
  let criterion =
    Testability.Detect.Phase_envelope { component_tol = 0.04; floor_rad = 0.02 }
  in
  let me = Testability.Matrix.build ~criterion grid views faults in
  let ma, _ = A.build ~criterion grid views faults in
  let ri6b =
    match
      List.find_index (fun f -> f.Fault.element = "RI6b") faults
    with
    | Some j -> j
    | None -> Alcotest.fail "leapfrog5 has no RI6b"
  in
  Array.iteri
    (fun i (v : Testability.Matrix.view) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s x RI6b detected exhaustively" v.Testability.Matrix.label)
        true me.Testability.Matrix.detect.(i).(ri6b))
    me.Testability.Matrix.views;
  Alcotest.(check bool) "detect bitwise identical" true
    (ma.Testability.Matrix.detect = me.Testability.Matrix.detect);
  Alcotest.(check (array (array int64)))
    "omega bitwise identical"
    (Array.map (Array.map Int64.bits_of_float) me.Testability.Matrix.omega)
    (Array.map (Array.map Int64.bits_of_float) ma.Testability.Matrix.omega)

(* ---- tolerance-space coverage sampling ---- *)

let coverage ?(samples = 64) ~jobs () =
  let b = Circuits.Tow_thomas.make () in
  let grid =
    Testability.Grid.around ~points_per_decade:4
      ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let probe =
    {
      Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  Testability.Montecarlo.coverage_run ~samples ~jobs ~component_tol:0.04
    ~epsilon:0.05 probe grid b.Circuits.Benchmark.netlist

let test_coverage_run_sound () =
  let c = coverage ~jobs:1 () in
  let module M = Testability.Montecarlo in
  Alcotest.(check int) "every draw lands in a stratum" c.M.samples
    (Array.fold_left ( + ) 0 c.M.stratum_samples);
  Array.iter
    (fun a ->
      Alcotest.(check bool) "acceptance is a probability" true
        (a >= 0.0 && a <= 1.0))
    c.M.stratum_accept;
  Alcotest.(check bool) "boundary radius clamped" true
    (c.M.boundary_radius >= 1.0 /. float_of_int c.M.strata
    && c.M.boundary_radius <= 1.0);
  Alcotest.(check bool) "averages are probabilities" true
    (c.M.worst_case >= 0.0 && c.M.worst_case <= 1.0
    && c.M.average_case >= 0.0 && c.M.average_case <= 1.0)

let test_coverage_run_jobs_invariant () =
  Alcotest.(check bool) "coverage stats independent of the worker count" true
    (coverage ~jobs:1 () = coverage ~jobs:4 ())

let test_coverage_run_validation () =
  let check_invalid what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  let b = Circuits.Tow_thomas.make () in
  let grid =
    Testability.Grid.around ~points_per_decade:2
      ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let probe =
    {
      Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  let run ?samples ?strata ~epsilon () =
    Testability.Montecarlo.coverage_run ?samples ?strata ~component_tol:0.04
      ~epsilon probe grid b.Circuits.Benchmark.netlist
  in
  check_invalid "epsilon 0" (fun () -> run ~epsilon:0.0 ());
  check_invalid "strata 0" (fun () -> run ~strata:0 ~epsilon:0.05 ());
  check_invalid "samples < 2*strata" (fun () ->
      run ~samples:10 ~strata:8 ~epsilon:0.05 ())

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_refined_row_exact;
    QCheck_alcotest.to_alcotest qcheck_certified_anchors_never_solved;
    Alcotest.test_case "adaptive pipeline = exhaustive (envelope)" `Quick
      test_pipeline_identity_envelope;
    Alcotest.test_case "adaptive pipeline = exhaustive (fixed)" `Quick
      test_pipeline_identity_fixed;
    Alcotest.test_case "adaptive pipeline = exhaustive (phase)" `Quick
      test_pipeline_identity_phase;
    Alcotest.test_case "adaptive = exhaustive at a leapfrog5 phase resonance" `Quick
      test_phase_envelope_resonance_identity;
    Alcotest.test_case "coverage_run accounting is sound" `Quick
      test_coverage_run_sound;
    Alcotest.test_case "coverage_run is jobs-invariant" `Quick
      test_coverage_run_jobs_invariant;
    Alcotest.test_case "coverage_run validates its arguments" `Quick
      test_coverage_run_validation;
  ]
