(* Interval-certification benchmarks: what does the static pass prove,
   and what would consuming its certificates change end-to-end?

   Campaigns do not certify by default; certification is opt-in
   (Pipeline.run ~certify:true). Each row runs the same Fixed_tolerance
   campaign twice — certification on (opt-in) and off (the default) —
   and reports the proved cell/point fractions, the numeric solves the
   certified campaign skipped (the certify.solves_skipped counter of a
   metrics-enabled rerun), both wall-clocks, and whether the two
   matrices came out bitwise identical (they must — the certify test
   suite enforces it; the bench records the fact next to the numbers).

   Certification is not a wall-clock optimization and the seconds
   columns show it: that is why it is off by default. One symbolic
   Bareiss elimination per (view × fault) cell costs more than the
   warmed SMW solves it lets the campaign skip, and the bigladder row
   is gated out entirely by the max_dim cap (symbolic elimination at
   MNA dimension in the hundreds is hopeless), so its proved counts are
   honest zeros. What the pass buys is solver-independent certificates:
   verdicts that hold over the continuous frequency band, not just at
   the sampled grid points. *)

module P = Mcdft_core.Pipeline
module M = Testability.Matrix
module C = Analysis.Certify

type row = {
  circuit : string;
  points_per_decade : int;
  n_faults : int;
  cells : int;
  cells_proved : int;
  points : int;
  points_proved : int;
  skipped_views : int;
  solves_skipped : int;
  certified_seconds : float;
  uncertified_seconds : float;
  identical : bool;
}

let criterion = Testability.Detect.Fixed_tolerance 0.10

let time_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let registry name =
  match Circuits.Registry.find name with
  | Some b -> b
  | None -> failwith ("bench certify: missing benchmark " ^ name)

(* Same deterministic construction as the sparse bench: the seed array
   keys the value draws off the stage count. *)
let bigladder ~stages =
  let netlist, output =
    Conformance.Gen.bigladder ~stages (Random.State.make [| 0x5bad; stages |])
  in
  {
    Circuits.Benchmark.name = Printf.sprintf "bigladder-%d" stages;
    description = "big RC double ladder (certification gate check)";
    netlist;
    source = "V1";
    output;
    center_hz = 10_000.0;
  }

let row ~ppd ?faults (b : Circuits.Benchmark.t) =
  let run ~certify () =
    P.run ~criterion ~points_per_decade:ppd ?faults ~jobs:1 ~certify b
  in
  (* warm-up settles allocator pages, as in the campaign bench *)
  Obs.Metrics.set_enabled false;
  ignore (run ~certify:true ());
  Gc.full_major ();
  let on, certified_seconds = time_s (run ~certify:true) in
  Gc.full_major ();
  let off, uncertified_seconds = time_s (run ~certify:false) in
  Gc.full_major ();
  (* counters come from a metrics-enabled rerun, the timed runs above
     keep the sinks disabled *)
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  ignore (run ~certify:true ());
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let stats =
    match on.P.certify with
    | Some c -> c.C.stats
    | None ->
        { C.cells = 0; cells_proved = 0; points = 0; points_proved = 0;
          skipped_views = 0 }
  in
  {
    circuit = b.Circuits.Benchmark.name;
    points_per_decade = ppd;
    n_faults = List.length on.P.faults;
    cells = stats.C.cells;
    cells_proved = stats.C.cells_proved;
    points = stats.C.points;
    points_proved = stats.C.points_proved;
    skipped_views = stats.C.skipped_views;
    solves_skipped = Obs.Metrics.counter snap "certify.solves_skipped";
    certified_seconds;
    uncertified_seconds;
    identical =
      on.P.matrix.M.detect = off.P.matrix.M.detect
      && on.P.matrix.M.omega = off.P.matrix.M.omega;
  }

let rows ~smoke () =
  if smoke then
    [
      row ~ppd:10 (registry "tow-thomas");
      row ~ppd:6 (registry "leapfrog5");
      (let b = bigladder ~stages:40 in
       row ~ppd:4
         ~faults:
           (List.filteri
              (fun i _ -> i mod 5 = 0)
              (Fault.deviation_faults b.Circuits.Benchmark.netlist))
         b);
    ]
  else
    [
      row ~ppd:30 (registry "tow-thomas");
      row ~ppd:10 (registry "leapfrog5");
      (let b = bigladder ~stages:100 in
       row ~ppd:6
         ~faults:
           (List.filteri
              (fun i _ -> i mod 5 = 0)
              (Fault.deviation_faults b.Circuits.Benchmark.netlist))
         b);
    ]

let to_json rows =
  [
    ( "certify",
      Report.Json.Object
        (List.map
           (fun r ->
             ( r.circuit,
               Report.Json.Object
                 [
                   ("points_per_decade", Report.Json.int r.points_per_decade);
                   ("n_faults", Report.Json.int r.n_faults);
                   ("cells", Report.Json.int r.cells);
                   ("cells_proved", Report.Json.int r.cells_proved);
                   ( "proved_cell_fraction",
                     Report.Json.Number
                       (if r.cells = 0 then 0.0
                        else float_of_int r.cells_proved /. float_of_int r.cells)
                   );
                   ("points", Report.Json.int r.points);
                   ("points_proved", Report.Json.int r.points_proved);
                   ( "proved_point_fraction",
                     Report.Json.Number
                       (if r.points = 0 then 0.0
                        else
                          float_of_int r.points_proved /. float_of_int r.points)
                   );
                   ("skipped_views", Report.Json.int r.skipped_views);
                   ("solves_skipped", Report.Json.int r.solves_skipped);
                   ("certified_seconds", Report.Json.Number r.certified_seconds);
                   ( "uncertified_seconds",
                     Report.Json.Number r.uncertified_seconds );
                   ( "matrices_bitwise_identical",
                     Report.Json.Bool r.identical );
                 ] ))
           rows) );
  ]

let print_rows rows =
  print_endline
    "\n==== CERTIFY: interval-certified campaign verdicts (fixed eps = 0.1) ====\n";
  let header =
    [
      "circuit"; "ppd"; "faults"; "cells proved"; "points proved"; "solves skipped";
      "certified (s)"; "numeric (s)"; "matrices";
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
              Printf.sprintf "%d/%d" r.cells_proved r.cells;
              (if r.points = 0 then "0/0"
               else
                 Printf.sprintf "%d/%d (%.1f%%)" r.points_proved r.points
                   (100.0 *. float_of_int r.points_proved
                   /. float_of_int r.points));
              string_of_int r.solves_skipped;
              Printf.sprintf "%.3f" r.certified_seconds;
              Printf.sprintf "%.3f" r.uncertified_seconds;
              (if r.identical then "bitwise-identical" else "DIFFER");
            ])
          rows));
  print_endline
    "  (certification trades wall-clock for band-wide certificates; the\n\
    \   gated bigladder row keeps its zeros honest)"

let all ~smoke () =
  let r = rows ~smoke () in
  print_rows r;
  r
