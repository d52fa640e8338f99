module Netlist = Circuit.Netlist
module Element = Circuit.Element

type probe = { source : string; output : string }

type criterion =
  | Fixed_tolerance of float
  | Process_envelope of { component_tol : float; floor : float }
  | Phase_fixed of float
  | Phase_envelope of { component_tol : float; floor_rad : float }
  | Any_of of criterion list

type result = {
  fault : Fault.t;
  detectable : bool;
  omega_det : float;
  regions : Util.Interval.Set.t;
}

let default_tolerance = 0.10
let default_criterion = Fixed_tolerance default_tolerance

let magnitude_dev t0 tf =
  let m0 = Complex.norm t0 and mf = Complex.norm tf in
  if m0 = 0.0 then if mf = 0.0 then 0.0 else infinity
  else Float.abs (mf -. m0) /. m0

let phase_dev t0 tf =
  if Complex.norm t0 = 0.0 || Complex.norm tf = 0.0 then 0.0
  else begin
    let d = Float.abs (Complex.arg tf -. Complex.arg t0) in
    if d > Float.pi then (2.0 *. Float.pi) -. d else d
  end

let response_deviation ~nominal ~faulty =
  if Array.length nominal <> Array.length faulty then
    invalid_arg "Detect.response_deviation: length mismatch";
  Array.map2 magnitude_dev nominal faulty

let phase_deviation ~nominal ~faulty =
  if Array.length nominal <> Array.length faulty then
    invalid_arg "Detect.phase_deviation: length mismatch";
  Array.map2 phase_dev nominal faulty

let nominal_response probe grid netlist =
  Mna.Ac.sweep ~source:probe.source ~output:probe.output netlist
    ~freqs_hz:(Grid.freqs_hz grid)

let make_sim ?backend probe grid netlist =
  Fastsim.create ?backend ~source:probe.source ~output:probe.output
    ~freqs_hz:(Grid.freqs_hz grid) netlist

(* One instantiated sub-criterion: which deviation to measure and the
   per-frequency threshold it must exceed. [steer] is the statically
   known part of the point margin's log — everything in
   log(deviation/threshold) that does not involve the faulty response:
   −log threshold, plus −log |H₀| for the magnitude deviations (which
   normalize by the nominal). The adaptive campaign driver subtracts
   it to bound how fast margins can move between grid points; it never
   affects a verdict. [chord_steer] is set for the phase deviations
   only: the static part of their chord bound (see {!point_margin}),
   −log |H₀| − log sin(min threshold π/2). *)
type prepared_one = {
  deviation : Complex.t -> Complex.t -> float;
  thresholds : float array;
  steer : float array;
  chord_steer : float array option;
}

type prepared = prepared_one list

(* Envelope accumulation over the per-component process drifts. Each
   drift is a single-passive deviation — exactly a rank-1 fault for
   the campaign engine, so the whole envelope costs one back-solve per
   (passive, frequency) instead of a full sweep per passive. Warming
   the drifts first ({!Fastsim.warm_cache}) does those back-solves as
   one block solve per frequency; each column is bitwise equal to the
   single solve the response would make, and a warmed entry books its
   miss on first read, so thresholds and hit/miss totals are those of
   the cold sweep. Every drift is swept into one reused planar row
   ({!Fastsim.response_range_into}), so no point boxes a response.
   [sim] is lazy so a circuit without passives never builds an
   engine. A grid point where a drifted good circuit has no solution
   mirrors the naive path's Singular_circuit. *)
let envelope_thresholds ~deviation ~floor ~sim grid netlist ~nominal
    ~component_tol =
  let nf = Grid.n_points grid in
  let envelope = Array.make nf floor in
  let drifts =
    List.map
      (fun e -> Fault.deviation ~element:(Element.name e) (1.0 +. component_tol))
      (Netlist.passives netlist)
  in
  if drifts <> [] then begin
    let sim = Lazy.force sim in
    Fastsim.warm_cache sim drifts;
    let re = Array.make nf 0.0 and im = Array.make nf 0.0 and ok = Bytes.make nf '\000' in
    List.iter
      (fun drift ->
        Fastsim.response_range_into sim (Fastsim.plan_of sim drift) ~lo:0 ~hi:nf ~re ~im
          ~ok;
        for i = 0 to nf - 1 do
          if Bytes.get ok i = '\000' then
            raise
              (Mna.Ac.Singular_circuit
                 (Printf.sprintf "MNA matrix singular at f = %g Hz for %S"
                    (Grid.freqs_hz grid).(i) (Netlist.title netlist)));
          envelope.(i) <-
            envelope.(i) +. deviation nominal.(i) { Complex.re = re.(i); im = im.(i) }
        done)
      drifts
  end;
  envelope

(* The measurement floor: a grid point whose nominal response magnitude
   sits below it has no usable reference — the relative deviation there
   is a ratio of floating-point residues (a dead view output, the
   bottom of a notch), and any verdict computed from it is numerical
   noise, not testability. Such points are undetectable by definition:
   every criterion's threshold is clamped to +∞ there and the
   failed-solve escape hatch is bypassed, so the verdict is a
   deterministic 'u' in every scoring path. The floor is relative to
   the view's own response scale, with an absolute backstop for views
   that are dead across the whole band. *)
let floor_of_peak peak = Float.max (1e-12 *. peak) 1e-13

let measurement_floor nominal =
  floor_of_peak (Array.fold_left (fun a c -> Float.max a (Complex.norm c)) 0.0 nominal)

let measurement_mask nominal =
  let floor_abs = measurement_floor nominal in
  Bytes.init (Array.length nominal) (fun k ->
      if Complex.norm nominal.(k) < floor_abs then '\001' else '\000')

(* The chord |H_f − H₀|/|H₀| = |r − 1|, r = H_f/H₀, bounds the phase
   deviation |arg r|: a point at angle θ from the positive real axis
   lies at least sin θ (θ ≤ π/2), else 1, away from 1. So a phase
   deviation above [thr] needs a chord above [chord_level thr]. *)
let chord_level thr = sin (Float.min thr (Float.pi /. 2.0))

let chord nominal tf = Complex.norm (Complex.sub tf nominal) /. Complex.norm nominal

let rec prepare_raw ~sim criterion grid netlist ~nominal =
  let magnitude_steer thresholds =
    Array.mapi
      (fun i thr -> -.(log thr +. log (Complex.norm nominal.(i))))
      thresholds
  in
  let magnitude thresholds =
    { deviation = magnitude_dev; thresholds; steer = magnitude_steer thresholds;
      chord_steer = None }
  in
  let phase thresholds =
    {
      deviation = phase_dev;
      thresholds;
      steer = Array.map (fun thr -> -.log thr) thresholds;
      chord_steer =
        Some
          (Array.mapi
             (fun i thr ->
               -.(log (chord_level thr) +. log (Complex.norm nominal.(i))))
             thresholds);
    }
  in
  match criterion with
  | Fixed_tolerance eps -> [ magnitude (Array.make (Grid.n_points grid) eps) ]
  | Phase_fixed rad -> [ phase (Array.make (Grid.n_points grid) rad) ]
  | Process_envelope { component_tol; floor } ->
      [
        magnitude
          (envelope_thresholds ~deviation:magnitude_dev ~floor ~sim grid netlist
             ~nominal ~component_tol);
      ]
  | Phase_envelope { component_tol; floor_rad } ->
      [
        phase
          (envelope_thresholds ~deviation:phase_dev ~floor:floor_rad ~sim grid
             netlist ~nominal ~component_tol);
      ]
  | Any_of criteria ->
      List.concat_map (fun c -> prepare_raw ~sim c grid netlist ~nominal) criteria

let prepare_with ~sim criterion grid netlist ~nominal =
  let prepared = prepare_raw ~sim criterion grid netlist ~nominal in
  let mask = measurement_mask nominal in
  List.iter
    (fun p ->
      Bytes.iteri
        (fun k b ->
          if b = '\001' then begin
            p.thresholds.(k) <- infinity;
            p.steer.(k) <- neg_infinity;
            Option.iter (fun c -> c.(k) <- neg_infinity) p.chord_steer
          end)
        mask)
    prepared;
  prepared

let prepare ?backend criterion probe grid netlist ~nominal =
  (* Lazy: criteria without an envelope never pay for the engine. *)
  let sim = lazy (make_sim ?backend probe grid netlist) in
  prepare_with ~sim criterion grid netlist ~nominal

let thresholds prepared = List.map (fun p -> p.thresholds) prepared

let result_of ~nominal ~prepared grid fault faulty =
  let mask = measurement_mask nominal in
  let deviates i =
    (* Below the measurement floor there is no verdict to salvage from
       a failed solve either — the point is undetectable by
       definition. *)
    match faulty.(i) with
    | None -> Bytes.get mask i = '\000'
    | Some tf ->
        List.exists (fun p -> p.deviation nominal.(i) tf > p.thresholds.(i)) prepared
  in
  let intervals = ref [] in
  for i = 0 to Grid.n_points grid - 1 do
    if deviates i then intervals := Grid.point_interval grid i :: !intervals
  done;
  let regions = Util.Interval.Set.of_intervals !intervals in
  let measure = Util.Interval.Set.measure regions in
  let omega_det = measure /. Grid.log_measure grid in
  { fault; detectable = not (Util.Interval.Set.is_empty regions); omega_det; regions }

let analyze_fault ?backend ?(criterion = default_criterion) ?nominal ?prepared probe
    grid netlist fault =
  let sim = lazy (make_sim ?backend probe grid netlist) in
  let respond f = Fastsim.response (Lazy.force sim) f in
  let nominal =
    match nominal with Some n -> n | None -> Fastsim.nominal (Lazy.force sim)
  in
  let prepared =
    match prepared with
    | Some p -> p
    | None -> prepare_with ~sim criterion grid netlist ~nominal
  in
  result_of ~nominal ~prepared grid fault (respond fault)

(* A fully-prepared view: engine, nominal response and instantiated
   thresholds, ready to score any number of faults. When [warm] is
   given, the engine's back-solve cache is prepopulated for those
   faults, after which {!analyze_prepared} never mutates the engine
   cache and the prepared view may be shared across domains. *)
type prepared_view = {
  sim : Fastsim.t;
  nominal : Complex.t array;
  prepared : prepared;
  mask : Bytes.t;
      (* measurement_mask of [nominal]: '\001' where the point is below
         the floor and therefore undetectable by definition *)
  threshold_solves : int;
      (* the engine's solves spent on the thresholds (envelope drifts) *)
}

let prepare_view ?backend ?(criterion = default_criterion) ?(warm = []) probe grid
    netlist =
  (* One engine for the whole view: the fault-free factors are built
     once per frequency and shared by the envelope preparation and by
     every fault's rank-1 solve. *)
  let sim = make_sim ?backend probe grid netlist in
  let nominal = Fastsim.nominal sim in
  let prepared = prepare_with ~sim:(Lazy.from_val sim) criterion grid netlist ~nominal in
  let smw, full = Fastsim.stats sim in
  if warm <> [] then Fastsim.warm_cache sim warm;
  {
    sim;
    nominal;
    prepared;
    mask = measurement_mask nominal;
    threshold_solves = smw + full;
  }

let analyze_prepared pv grid fault =
  result_of ~nominal:pv.nominal ~prepared:pv.prepared grid fault
    (Fastsim.response pv.sim fault)

(* ---- blocked scoring (the campaign matrix path) ----

   {!Testability.Matrix} decomposes scoring into (view × fault-chunk ×
   frequency-block) tasks: plans are built once per (view, fault),
   each task fills a frequency block of planar response rows, and a
   sequential reduce turns each completed row into a {!result}. The
   arithmetic is exactly {!analyze_prepared}'s — same solver, same
   deviation/threshold comparisons — just restructured so one cached
   LU factor serves a contiguous block of back-solves and workers
   never box per-point responses. *)

let view_dim pv = Fastsim.dim pv.sim
let threshold_solves pv = pv.threshold_solves
let view_uses_sparse pv = Fastsim.uses_sparse pv.sim
let plan_fault pv fault = Fastsim.plan_of pv.sim fault

let score_range pv plan ~lo ~hi ~re ~im ~ok =
  Fastsim.response_range_into pv.sim plan ~lo ~hi ~re ~im ~ok

let result_of_rows pv grid fault ~re ~im ~ok =
  let nominal = pv.nominal and prepared = pv.prepared in
  let deviates i =
    (* The measurement floor comes first — a sub-floor point is
       undetectable by definition, before the solve is consulted. *)
    if Bytes.get pv.mask i = '\001' then false
    else if Bytes.get ok i = '\000' then true
    else
      let tf = { Complex.re = re.(i); im = im.(i) } in
      List.exists
        (fun p -> p.deviation nominal.(i) tf > p.thresholds.(i))
        prepared
  in
  let intervals = ref [] in
  for i = 0 to Grid.n_points grid - 1 do
    if deviates i then intervals := Grid.point_interval grid i :: !intervals
  done;
  let regions = Util.Interval.Set.of_intervals !intervals in
  let measure = Util.Interval.Set.measure regions in
  let omega_det = measure /. Grid.log_measure grid in
  { fault; detectable = not (Util.Interval.Set.is_empty regions); omega_det; regions }

let point_verdict pv ~re ~im ~ok i =
  if Bytes.get pv.mask i = '\001' then false
  else if Bytes.get ok i = '\000' then true
  else
    let tf = { Complex.re = re.(i); im = im.(i) } in
    List.exists
      (fun p -> p.deviation pv.nominal.(i) tf > p.thresholds.(i))
      pv.prepared

let steering_profiles pv =
  List.concat_map (fun p -> p.steer :: Option.to_list p.chord_steer) pv.prepared
let view_measurement_mask pv = pv.mask

(* A phase deviation has no slope bound: where an undamped (or barely
   damped) resonance of the nominal and of the faulty response sit on
   either side of a grid point, arg jumps by π there while both
   phases agree to round-off everywhere else — margins of −∞ or
   ~−33 nepers a single grid step from a detection. At an undetected
   point the phase sub-criteria therefore also report their chord
   bound (see {!chord_level}), a rational function of jω that moves as
   smoothly as the magnitude deviations do: the point counts as far
   from detection only if the chord is far below its level too, and a
   chord at or above it leaves no margin at all. A detected point, and
   every magnitude sub-criterion, keeps the plain ratio. *)
let point_margin pv ~re ~im ~ok i =
  if Bytes.get pv.mask i = '\001' then Float.neg_infinity
  else if Bytes.get ok i = '\000' then Float.nan
  else
    let nominal = pv.nominal.(i) in
    let tf = { Complex.re = re.(i); im = im.(i) } in
    let ratio_of dev thr =
      if thr > 0.0 then dev /. thr else if dev > 0.0 then infinity else 1.0
    in
    let detected = point_verdict pv ~re ~im ~ok i in
    let ratio =
      List.fold_left
        (fun acc p ->
          let thr = p.thresholds.(i) in
          let r = ratio_of (p.deviation nominal tf) thr in
          let r =
            match p.chord_steer with
            | Some _ when not detected ->
                Float.min 1.0 (Float.max r (ratio_of (chord nominal tf) (chord_level thr)))
            | _ -> r
          in
          Float.max acc r)
        0.0 pv.prepared
    in
    log ratio

let result_of_verdicts grid fault verdicts =
  if Bytes.length verdicts <> Grid.n_points grid then
    invalid_arg "Detect.result_of_verdicts: verdict length mismatch";
  if Bytes.exists (fun b -> b = '?') verdicts then
    invalid_arg "Detect.result_of_verdicts: uncertified point";
  let intervals = ref [] in
  for i = 0 to Grid.n_points grid - 1 do
    if Bytes.get verdicts i = 'd' then
      intervals := Grid.point_interval grid i :: !intervals
  done;
  let regions = Util.Interval.Set.of_intervals !intervals in
  let measure = Util.Interval.Set.measure regions in
  let omega_det = measure /. Grid.log_measure grid in
  { fault; detectable = not (Util.Interval.Set.is_empty regions); omega_det; regions }

let analyze ?backend ?criterion probe grid netlist faults =
  let pv = prepare_view ?backend ?criterion probe grid netlist in
  List.map (fun fault -> analyze_prepared pv grid fault) faults

let minimal_detectable_deviation ?backend ?(criterion = default_criterion)
    ?(max_factor = 10.0) probe grid netlist ~element =
  if max_factor <= 1.0 then
    invalid_arg "Detect.minimal_detectable_deviation: max_factor must exceed 1";
  let sim = make_sim ?backend probe grid netlist in
  let respond f = Fastsim.response sim f in
  let nominal = Fastsim.nominal sim in
  let prepared = prepare_with ~sim:(Lazy.from_val sim) criterion grid netlist ~nominal in
  let detectable factor =
    let fault = Fault.deviation ~element factor in
    (result_of ~nominal ~prepared grid fault (respond fault)).detectable
  in
  if not (detectable max_factor) then None
  else begin
    (* bisect on log(factor) in (0, log max_factor] *)
    let lo = ref 0.0 and hi = ref (log max_factor) in
    for _ = 1 to 20 do
      let mid = (!lo +. !hi) /. 2.0 in
      if detectable (exp mid) then hi := mid else lo := mid
    done;
    Some (exp !hi)
  end

let fault_coverage results =
  match results with
  | [] -> 0.0
  | _ ->
      let detected = List.length (List.filter (fun r -> r.detectable) results) in
      float_of_int detected /. float_of_int (List.length results)

let average_omega_det results =
  match results with
  | [] -> 0.0
  | _ ->
      List.fold_left (fun acc r -> acc +. r.omega_det) 0.0 results
      /. float_of_int (List.length results)
