(* The fault-simulation campaign engine against its oracles:
   - split stamp assembly vs the complex-field functor assembly;
   - rank-1 (Sherman–Morrison) faulty responses vs naive
     inject-and-resolve, including catastrophic and structural faults;
   - worker-count independence of the parallel campaign. *)

open Testability
module Netlist = Circuit.Netlist

let benchmarks = Circuits.Registry.all ()

let grid_of b =
  Grid.around ~points_per_decade:4 ~center_hz:b.Circuits.Benchmark.center_hz ()

(* A passive RLC divider: the zoo is opamp-RC only, and the inductor
   branch is what exercises the engine's structural-fault fallback
   (an inductor open/short changes the MNA dimension). *)
let rlc =
  Netlist.empty ~title:"rlc divider" ()
  |> Netlist.vsource ~name:"Vin" "in" "0" 1.0
  |> Netlist.resistor ~name:"R1" "in" "out" 1_000.0
  |> Netlist.inductor ~name:"L1" "out" "0" 10e-3
  |> Netlist.capacitor ~name:"C1" "out" "0" 100e-9

let rlc_center_hz = 5_033.0 (* 1 / (2π√(LC)) *)

(* --- split assembly vs complex-field functor assembly ------------- *)

let functor_system ~source ~omega index netlist =
  let module F = (val Mna.Field.complex ~omega : Mna.Field.S with type t = Complex.t) in
  let module A = Mna.Assemble.Make (F) in
  let { A.matrix; rhs } = A.assemble ~sources:(Mna.Assemble.Only source) index netlist in
  (matrix, rhs)

let close ?(tol = 1e-12) a b =
  Complex.norm (Complex.sub a b) <= tol *. Float.max 1.0 (Complex.norm b)

let qcheck_split_assembly =
  QCheck.Test.make ~name:"split assembly matches functor assembly" ~count:60
    (QCheck.make QCheck.Gen.(pair (int_range 0 1000) (float_range 0.0 7.0)))
    (fun (pick, expo) ->
      let b = List.nth benchmarks (pick mod List.length benchmarks) in
      let netlist = b.Circuits.Benchmark.netlist
      and source = b.Circuits.Benchmark.source in
      let omega = 10.0 ** expo in
      let index = Mna.Index.build netlist in
      let stamps = Mna.Stamps.build ~sources:(Mna.Assemble.Only source) index netlist in
      let m = Mna.Stamps.matrix stamps ~omega in
      let rhs = Mna.Stamps.rhs stamps ~omega in
      let f_matrix, f_rhs = functor_system ~source ~omega index netlist in
      let n = Mna.Stamps.size stamps in
      let ok = ref (n = Array.length f_rhs) in
      for i = 0 to n - 1 do
        ok := !ok && close rhs.(i) f_rhs.(i);
        for j = 0 to n - 1 do
          ok := !ok && close (Linalg.Cmat.get m i j) f_matrix.(i).(j)
        done
      done;
      !ok)

(* --- rank-1 faulty responses vs naive inject-and-resolve ---------- *)

let naive_response ~source ~output ~freqs_hz fault netlist =
  let faulty = Fault.inject fault netlist in
  Array.map
    (fun f ->
      let omega = 2.0 *. Float.pi *. f in
      match Mna.Ac.transfer ~source ~output faulty ~omega with
      | t -> Some t
      | exception Mna.Ac.Singular_circuit _ -> None)
    freqs_hz

(* ±20 % deviations keep the faulty system as well-conditioned as the
   nominal one, and the refined rank-1 update matches a from-scratch
   resolve to machine precision — 1e-9 is generous. A catastrophic
   open/short rescales one conductance by ~10⁷, and the two paths'
   ulp-level assembly differences are amplified by the faulty system's
   condition number: agreement to ~1e-8 is all either path can claim
   against the other, so those are checked at 1e-6 (still far below
   any detection threshold). *)
let tol_for (fault : Fault.t) =
  match fault.Fault.kind with Fault.Deviation _ -> 1e-9 | _ -> 1e-6

let check_fault_equivalence ~source ~output ~freqs_hz sim fault netlist =
  let fast = Fastsim.response sim fault in
  let naive = naive_response ~source ~output ~freqs_hz fault netlist in
  Array.iteri
    (fun i fo ->
      match (fo, naive.(i)) with
      | None, None -> ()
      | Some a, Some b ->
          if not (close ~tol:(tol_for fault) a b) then
            Alcotest.fail
              (Printf.sprintf "%s at %g Hz: fast %g%+gi, naive %g%+gi"
                 (Format.asprintf "%a" Fault.pp fault)
                 freqs_hz.(i) a.Complex.re a.Complex.im b.Complex.re b.Complex.im)
      | Some _, None | None, Some _ ->
          Alcotest.fail
            (Printf.sprintf "%s at %g Hz: singularity disagreement"
               (Format.asprintf "%a" Fault.pp fault)
               freqs_hz.(i)))
    fast

let all_faults netlist =
  Fault.both_deviations netlist @ Fault.catastrophic_faults netlist

let test_fault_equivalence_zoo () =
  List.iter
    (fun b ->
      let netlist = b.Circuits.Benchmark.netlist
      and source = b.Circuits.Benchmark.source
      and output = b.Circuits.Benchmark.output in
      let freqs_hz = Grid.freqs_hz (grid_of b) in
      let sim = Fastsim.create ~source ~output ~freqs_hz netlist in
      List.iter
        (fun fault ->
          check_fault_equivalence ~source ~output ~freqs_hz sim fault netlist)
        (all_faults netlist))
    benchmarks

let test_fault_equivalence_rlc () =
  let freqs_hz =
    Grid.freqs_hz (Grid.around ~points_per_decade:4 ~center_hz:rlc_center_hz ())
  in
  let sim = Fastsim.create ~source:"Vin" ~output:"out" ~freqs_hz rlc in
  List.iter
    (fun fault ->
      check_fault_equivalence ~source:"Vin" ~output:"out" ~freqs_hz sim fault rlc)
    (all_faults rlc);
  let smw, full = Fastsim.stats sim in
  if smw = 0 then Alcotest.fail "rank-1 path never used";
  (* the four L1 catastrophic/deviation point-solves include structural
     ones, which must not be claimed by the rank-1 counter *)
  if full = 0 then Alcotest.fail "structural fallback never used"

let test_smw_actually_used () =
  let b = Circuits.Tow_thomas.make () in
  let freqs_hz = Grid.freqs_hz (grid_of b) in
  let sim =
    Fastsim.create ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output ~freqs_hz b.Circuits.Benchmark.netlist
  in
  List.iter
    (fun fault -> ignore (Fastsim.response sim fault))
    (Fault.both_deviations b.Circuits.Benchmark.netlist);
  let smw, full = Fastsim.stats sim in
  Alcotest.(check bool) "rank-1 dominates" true (smw > 10 * Stdlib.max 1 full)

let test_nominal_matches_sweep () =
  List.iter
    (fun b ->
      let netlist = b.Circuits.Benchmark.netlist
      and source = b.Circuits.Benchmark.source
      and output = b.Circuits.Benchmark.output in
      let freqs_hz = Grid.freqs_hz (grid_of b) in
      let sim = Fastsim.create ~source ~output ~freqs_hz netlist in
      let sweep = Mna.Ac.sweep ~source ~output netlist ~freqs_hz in
      Array.iteri
        (fun i t ->
          if Fastsim.nominal sim |> fun n -> n.(i) <> t then
            Alcotest.fail
              (Printf.sprintf "%s: nominal differs from sweep at %g Hz"
                 b.Circuits.Benchmark.name freqs_hz.(i)))
        sweep)
    benchmarks

(* --- batched metrics flushes -------------------------------------- *)

(* The engine batches its Obs.Metrics increments into per-domain
   locals and flushes them once per scored range, so the hot loop
   never touches the shared counter table. The batching must be
   invisible at call boundaries: after any sequence of responses, the
   Obs totals equal the engine's own atomic counters exactly. *)
let test_metrics_batching_exact () =
  let b = Circuits.Tow_thomas.make () in
  let freqs_hz = Grid.freqs_hz (grid_of b) in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      let sim =
        Fastsim.create ~source:b.Circuits.Benchmark.source
          ~output:b.Circuits.Benchmark.output ~freqs_hz
          b.Circuits.Benchmark.netlist
      in
      List.iter
        (fun fault -> ignore (Fastsim.response sim fault))
        (all_faults b.Circuits.Benchmark.netlist);
      let snap = Obs.Metrics.snapshot () in
      let smw, full = Fastsim.stats sim in
      Alcotest.(check int) "smw_solves flushed exactly" smw
        (Obs.Metrics.counter snap "fastsim.smw_solves");
      Alcotest.(check int) "full_solves flushed exactly" full
        (Obs.Metrics.counter snap "fastsim.full_solves"))

(* --- non-finite rank-1 candidates ---------------------------------- *)

(* Scaling a tow-thomas resistor by a tiny factor is still a finite
   rank-1 perturbation, but the Sherman–Morrison candidate overflows.
   For R1 × 5e-309 (α ≈ 2·10³⁰⁴ S) the bare candidate is already ±∞ at
   the low grid points; for R2 × 1e-300 the bare candidate is finite
   but fails the gate, and its refinement step overflows. The residual
   gate cannot judge either — their residual rows are NaN, which an
   ∞-norm skips — so both must take the full refactorization:
   full_solves moves and no point comes back non-finite. The first
   never reaches the refinement step. *)
let test_nonfinite_candidate_falls_back () =
  let b = Circuits.Tow_thomas.make () in
  let netlist = b.Circuits.Benchmark.netlist
  and source = b.Circuits.Benchmark.source
  and output = b.Circuits.Benchmark.output in
  let freqs_hz = Grid.freqs_hz (grid_of b) in
  let check ~refined fault =
    let what = Format.asprintf "%a" Fault.pp fault in
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.set_enabled false;
        Obs.Metrics.reset ())
      (fun () ->
        let sim = Fastsim.create ~backend:Fastsim.Dense ~source ~output ~freqs_hz netlist in
        let r = Fastsim.response sim fault in
        let _, full = Fastsim.stats sim in
        let snap = Obs.Metrics.snapshot () in
        Alcotest.(check bool) (what ^ ": full refactorizations happened") true (full > 0);
        Alcotest.(check int) (what ^ ": fastsim.full_solves moved") full
          (Obs.Metrics.counter snap "fastsim.full_solves");
        Alcotest.(check bool) (what ^ ": refinement steps taken") refined
          (Obs.Metrics.counter snap "fastsim.refine_steps" > 0);
        Array.iteri
          (fun i -> function
            | Some (z : Complex.t)
              when not (Float.is_finite z.Complex.re && Float.is_finite z.Complex.im) ->
                Alcotest.failf "%s: non-finite response %g%+gi at %g Hz" what z.Complex.re
                  z.Complex.im freqs_hz.(i)
            | _ -> ())
          r)
  in
  check ~refined:false (Fault.deviation ~element:"R1" 5e-309);
  check ~refined:true (Fault.deviation ~element:"R2" 1e-300)

(* --- worker-count independence ------------------------------------ *)

let test_pipeline_jobs_deterministic () =
  let b = Circuits.Tow_thomas.make () in
  let run jobs = Mcdft_core.Pipeline.run ~points_per_decade:6 ~jobs b in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool) "detect matrices equal" true
    (t1.Mcdft_core.Pipeline.matrix.Matrix.detect
    = t4.Mcdft_core.Pipeline.matrix.Matrix.detect);
  Alcotest.(check bool) "omega matrices equal" true
    (t1.Mcdft_core.Pipeline.matrix.Matrix.omega
    = t4.Mcdft_core.Pipeline.matrix.Matrix.omega)

let test_montecarlo_jobs_deterministic () =
  let b = Circuits.Tow_thomas.make () in
  let probe =
    {
      Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  let grid = grid_of b in
  let run jobs =
    Montecarlo.run ~seed:7 ~samples:24 ~jobs ~component_tol:0.04 probe grid
      b.Circuits.Benchmark.netlist
  in
  let s1 = run 1 and s3 = run 3 in
  Alcotest.(check bool) "max_dev equal" true (s1.Montecarlo.max_dev = s3.Montecarlo.max_dev);
  Alcotest.(check bool) "mean_dev equal" true
    (s1.Montecarlo.mean_dev = s3.Montecarlo.mean_dev);
  Alcotest.(check bool) "per-sample peaks equal" true
    (s1.Montecarlo.per_sample_peak = s3.Montecarlo.per_sample_peak)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_split_assembly;
    Alcotest.test_case "faulty responses match naive resolve (zoo)" `Quick
      test_fault_equivalence_zoo;
    Alcotest.test_case "faulty responses match naive resolve (RLC)" `Quick
      test_fault_equivalence_rlc;
    Alcotest.test_case "rank-1 path serves deviation faults" `Quick
      test_smw_actually_used;
    Alcotest.test_case "nominal equals Ac.sweep" `Quick test_nominal_matches_sweep;
    Alcotest.test_case "batched metrics equal engine stats" `Quick
      test_metrics_batching_exact;
    Alcotest.test_case "non-finite rank-1 candidate takes the full solve" `Quick
      test_nonfinite_candidate_falls_back;
    Alcotest.test_case "Pipeline.run independent of jobs" `Quick
      test_pipeline_jobs_deterministic;
    Alcotest.test_case "Montecarlo.run independent of jobs" `Quick
      test_montecarlo_jobs_deterministic;
  ]
