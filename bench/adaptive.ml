(* Coverage-directed campaign benchmarks: how many numeric solves does
   the coarse-to-fine refinement actually avoid, and at what
   wall-clock, with the matrices pinned bitwise to the exhaustive
   sweep?

   Each row runs the same campaign twice — adaptive and exhaustive, on
   every view of the campaign — and reports the refinement counters (points, certified
   anchors, solves, skips, bisections, plus the adaptive.solves_skipped
   counter of a metrics-enabled rerun), both wall-clocks, and the solve
   reduction factor points/solved. Two
   gates hold the process to the repo's invariants instead of merely
   printing numbers:

   - every row's detect/omega matrices must be bitwise identical
     between the two runs (the refinement is an optimization, never an
     approximation);
   - the full leapfrog5 row at 30 points per decade must keep its
     solve reduction at 3x or better — the headline number; a
     calibration regression (guard, stride, measurement floor) shows
     up here before it shows up as wasted campaign time.

   The bigladder row is fault-sampled like the certify bench's: the
   point of that row is the dead-view behaviour (reconfigurations that
   disconnect the probed output cost zero solves under the measurement
   floor), not raw size. *)

module P = Mcdft_core.Pipeline
module A = Mcdft_core.Adaptive
module M = Testability.Matrix

type row = {
  circuit : string;
  points_per_decade : int;
  n_faults : int;
  rows_scored : int;
  points : int;
  certified : int;
  solved : int;
  skipped : int;
  bisections : int;
  solves_skipped : int;
  reduction : float;
  adaptive_seconds : float;
  exhaustive_seconds : float;
  identical : bool;
}

let time_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let registry name =
  match Circuits.Registry.find name with
  | Some b -> b
  | None -> failwith ("bench adaptive: missing benchmark " ^ name)

let bigladder ~stages =
  let netlist, output =
    Conformance.Gen.bigladder ~stages (Random.State.make [| 0x5bad; stages |])
  in
  {
    Circuits.Benchmark.name = Printf.sprintf "bigladder-%d" stages;
    description = "big RC double ladder (dead-view refinement check)";
    netlist;
    source = "V1";
    output;
    center_hz = 10_000.0;
  }

let gate ~what ok =
  if not ok then begin
    Printf.eprintf "bench adaptive: GATE FAILED: %s\n" what;
    exit 1
  end

(* The campaign's own views, criterion, grid and faults, through the
   adaptive campaign and the exhaustive per-view one. Pipeline.run no
   longer drives Adaptive.build, so both are called directly on every
   view. *)
let row ~ppd ?faults ?min_reduction (b : Circuits.Benchmark.t) =
  Obs.Metrics.set_enabled false;
  let t = P.run ~points_per_decade:ppd ?faults ~jobs:1 ~adaptive:false b in
  let views = Array.to_list t.P.matrix.M.views in
  let criterion = t.P.criterion in
  let adaptive () = A.build ~criterion ~jobs:1 t.P.grid views t.P.faults in
  let exhaustive () = M.build ~criterion ~jobs:1 t.P.grid views t.P.faults in
  ignore (adaptive ());
  Gc.full_major ();
  let (on, s), adaptive_seconds = time_s adaptive in
  Gc.full_major ();
  let off, exhaustive_seconds = time_s exhaustive in
  Gc.full_major ();
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  ignore (adaptive ());
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let identical = on.M.detect = off.M.detect && on.M.omega = off.M.omega in
  gate
    ~what:
      (Printf.sprintf "%s ppd=%d: adaptive matrices differ from the exhaustive \
                       sweep" b.Circuits.Benchmark.name ppd)
    identical;
  let reduction =
    float_of_int s.A.points /. float_of_int (max 1 s.A.solved)
  in
  Option.iter
    (fun floor ->
      gate
        ~what:
          (Printf.sprintf "%s ppd=%d: solve reduction %.2fx below the %.1fx floor"
             b.Circuits.Benchmark.name ppd reduction floor)
        (reduction >= floor))
    min_reduction;
  {
    circuit = b.Circuits.Benchmark.name;
    points_per_decade = ppd;
    n_faults = List.length t.P.faults;
    rows_scored = s.A.rows;
    points = s.A.points;
    certified = s.A.certified;
    solved = s.A.solved;
    skipped = s.A.skipped;
    bisections = s.A.bisections;
    solves_skipped = Obs.Metrics.counter snap "adaptive.solves_skipped";
    reduction;
    adaptive_seconds;
    exhaustive_seconds;
    identical;
  }

let sampled_faults netlist =
  List.filteri (fun i _ -> i mod 5 = 0) (Fault.deviation_faults netlist)

let rows ~smoke () =
  if smoke then
    [
      row ~ppd:10 (registry "tow-thomas");
      row ~ppd:10 (registry "leapfrog5");
      (let b = bigladder ~stages:40 in
       row ~ppd:4 ~faults:(sampled_faults b.Circuits.Benchmark.netlist) b);
    ]
  else
    [
      row ~ppd:30 (registry "tow-thomas");
      row ~ppd:30 ~min_reduction:3.0 (registry "leapfrog5");
      (let b = bigladder ~stages:100 in
       row ~ppd:6 ~faults:(sampled_faults b.Circuits.Benchmark.netlist) b);
    ]

let to_json rows =
  [
    ( "adaptive",
      Report.Json.Object
        (List.map
           (fun r ->
             ( r.circuit,
               Report.Json.Object
                 [
                   ("points_per_decade", Report.Json.int r.points_per_decade);
                   ("n_faults", Report.Json.int r.n_faults);
                   ("rows", Report.Json.int r.rows_scored);
                   ("points", Report.Json.int r.points);
                   ("certified", Report.Json.int r.certified);
                   ("solved", Report.Json.int r.solved);
                   ("skipped", Report.Json.int r.skipped);
                   ("bisections", Report.Json.int r.bisections);
                   ("solves_skipped", Report.Json.int r.solves_skipped);
                   ("solve_reduction", Report.Json.Number r.reduction);
                   ("adaptive_seconds", Report.Json.Number r.adaptive_seconds);
                   ( "exhaustive_seconds",
                     Report.Json.Number r.exhaustive_seconds );
                   ("matrices_bitwise_identical", Report.Json.Bool r.identical);
                 ] ))
           rows) );
  ]

let print_rows rows =
  print_endline
    "\n==== ADAPTIVE: coverage-directed campaign refinement ====\n";
  let header =
    [
      "circuit"; "ppd"; "faults"; "solved/points"; "reduction"; "bisections";
      "adaptive (s)"; "exhaustive (s)"; "matrices";
    ]
  in
  print_endline
    (Report.Table.render ~header
       (List.map
          (fun r ->
            [
              r.circuit;
              string_of_int r.points_per_decade;
              string_of_int r.n_faults;
              Printf.sprintf "%d/%d" r.solved r.points;
              Printf.sprintf "%.2fx" r.reduction;
              string_of_int r.bisections;
              Printf.sprintf "%.3f" r.adaptive_seconds;
              Printf.sprintf "%.3f" r.exhaustive_seconds;
              (if r.identical then "bitwise-identical" else "DIFFER");
            ])
          rows));
  print_endline
    "  (matrices are asserted bitwise identical in-process; the full\n\
    \   leapfrog5 row additionally gates its solve reduction at 3x)"

let all ~smoke () =
  let r = rows ~smoke () in
  print_rows r;
  r
