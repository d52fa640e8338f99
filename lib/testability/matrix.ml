module Netlist = Circuit.Netlist

type view = { label : string; netlist : Netlist.t; probe : Detect.probe }

type t = {
  views : view array;
  faults : Fault.t array;
  detect : bool array array;
  omega : float array array;
}

(* Task shape of the scoring phase: a few faults per task keeps the
   view's per-frequency LU factor hot across the faults that reuse it,
   and a bounded frequency block caps each task's working set while
   letting one cached factor serve a contiguous run of back-solves. *)
let fault_chunk = 8
let freq_block = 16

type prepared = {
  index : int;
  pv : Detect.prepared_view;
  cert : Bytes.t option array;
  plans : Fastsim.plan option array;
  point_ns : float;
}

let stream ?backend ?certified ?criterion ~jobs grid views faults score =
  let n = Array.length views and m = Array.length faults in
  let nf = Grid.n_points grid in
  (match certified with
  | None -> ()
  | Some cube ->
      if
        Array.length cube <> n
        || Array.exists
             (fun row ->
               Array.length row <> m
               || Array.exists
                    (function
                      | Some v -> Bytes.length v <> nf | None -> false)
                    row)
             cube
      then invalid_arg "Matrix.stream: certified verdict cube shape mismatch");
  let has_unknown v = Bytes.exists (fun b -> b = '?') v in
  (* Certified-cell accounting, sequential and ahead of the parallel
     phases so the counters are jobs-invariant by construction. *)
  let certified_points = ref 0 in
  (match certified with
  | None -> ()
  | Some cube ->
      Array.iter
        (fun row ->
          Array.iter
            (function
              | None -> ()
              | Some v ->
                  let proved = ref 0 in
                  Bytes.iter (fun b -> if b <> '?' then incr proved) v;
                  certified_points := !certified_points + !proved;
                  if !proved > 0 then begin
                    Obs.Metrics.incr ~by:!proved "certify.solves_skipped";
                    if !proved = nf then Obs.Metrics.incr "certify.cells_proved"
                  end)
            row)
        cube);
  let fault_list = Array.to_list faults in
  (* One view's preparation: engine and thresholds, the back-solve
     cache warmed for the faults still to be scored (fully certified
     ones are never scored, so they need neither a warmed cache nor a
     plan), and every fault classified into an immutable plan — so the
     scoring phase never mutates an engine. *)
  let prepare i =
    let view = views.(i) in
    Obs.Trace.span ~args:[ ("view", view.label) ] "campaign.view" @@ fun () ->
    let cert =
      match certified with None -> Array.make m None | Some cube -> cube.(i)
    in
    let scored j = match cert.(j) with Some v -> has_unknown v | None -> true in
    let pv =
      Detect.prepare_view ?backend ?criterion
        ~warm:(List.filteri (fun j _ -> scored j) fault_list)
        view.probe grid view.netlist
    in
    let plans =
      Array.mapi
        (fun j fault -> if scored j then Some (Detect.plan_fault pv fault) else None)
        faults
    in
    (* Rough per-point cost of a warmed rank-1 solve (the update and
       the residual product over A's stored entries, bounded here by
       n²) — feeds the scheduler's sequential cutoff, so only the
       order of magnitude matters. *)
    let dim = float_of_int (Detect.view_dim pv) in
    { index = i; pv; cert; plans; point_ns = (3.0 *. dim *. dim) +. 250.0 }
  in
  (* The preparation estimate only needs the order of magnitude, so
     the element count stands in for the not yet known MNA dimension. *)
  let prep_ns i =
    let d = float_of_int (List.length (Netlist.elements views.(i).netlist)) in
    float_of_int nf *. d *. d *. (d +. (6.0 *. float_of_int m))
  in
  (* Windows of as many views as there are workers: a view lives from
     its preparation through the scoring of all its rows, then drops
     with its window, so at most one window of engines (A(jω), LU
     factors, warmed back-solves) is ever live. *)
  let window = Util.Parallel.effective_jobs jobs in
  let rec walk lo =
    if lo < n then begin
      let k = Int.min window (n - lo) in
      let est_ns =
        Util.Floatx.fold_range k ~init:0.0 ~f:(fun acc r -> acc +. prep_ns (lo + r))
      in
      score (Util.Parallel.map ~jobs ~est_ns k (fun r -> prepare (lo + r)));
      walk (lo + k)
    end
  in
  walk 0;
  !certified_points

let build ?backend ?criterion ?(jobs = 1) grid views faults =
  Obs.Trace.span "matrix.build" @@ fun () ->
  let views = Array.of_list views in
  let faults = Array.of_list faults in
  let n = Array.length views and m = Array.length faults in
  let nf = Grid.n_points grid in
  let detect = Array.make_matrix n m false in
  let omega = Array.make_matrix n m 0.0 in
  (* Planar response rows for one window of views, reused by every
     window: every slot is written before it is read. *)
  let rows =
    Array.init
      (Int.min n (Util.Parallel.effective_jobs jobs))
      (fun _ ->
        Array.init m (fun _ ->
            (Array.make nf 0.0, Array.make nf 0.0, Bytes.make nf '\000')))
  in
  let n_fc = if m = 0 then 0 else (m + fault_chunk - 1) / fault_chunk in
  let n_fb = if nf = 0 then 0 else (nf + freq_block - 1) / freq_block in
  (* Phase 1, per window — {!stream} prepares the window's views in
     parallel. Phase 2 scores them over (view × fault-chunk ×
     frequency-block) tasks. Each task fills one frequency block of a
     handful of response rows; rows are per-(view, fault) planar
     buffers, so tasks touching the same row write disjoint index
     ranges and workers share nothing but the scheduler state, the
     read-only prepared views and plans. Work-stealing balances the
     uneven task costs (structural faults and full fallbacks cost
     O(n³) per point, warmed rank-1 solves O(nnz + n)). Phase 3
     reduces the window's rows to verdicts before the window, and its
     engines, are dropped. *)
  let score window =
    let w = Array.length window in
    let score_est =
      Array.fold_left
        (fun acc p -> acc +. (float_of_int (m * nf) *. p.point_ns))
        0.0 window
    in
    Obs.Trace.span "campaign.score" (fun () ->
        Util.Parallel.for_ ~jobs ~est_ns:score_est
          (w * n_fc * n_fb)
          (fun item ->
            let r = item / (n_fc * n_fb) in
            let rem = item mod (n_fc * n_fb) in
            let c = rem / n_fb and bq = rem mod n_fb in
            let { pv; plans; _ } = window.(r) in
            let lo = bq * freq_block in
            let hi = Int.min nf (lo + freq_block) in
            let j1 = Int.min m ((c * fault_chunk) + fault_chunk) - 1 in
            for j = c * fault_chunk to j1 do
              let re, im, ok = rows.(r).(j) in
              Detect.score_range pv (Option.get plans.(j)) ~lo ~hi ~re ~im ~ok
            done));
    (* Sequential reduce, in view order: cheap (interval bookkeeping),
       and keeping it sequential keeps the matrix trivially
       jobs-deterministic. *)
    Obs.Trace.span "matrix.reduce" (fun () ->
        Array.iteri
          (fun r { index = i; pv; _ } ->
            for j = 0 to m - 1 do
              let re, im, ok = rows.(r).(j) in
              let res = Detect.result_of_rows pv grid faults.(j) ~re ~im ~ok in
              detect.(i).(j) <- res.Detect.detectable;
              omega.(i).(j) <- res.Detect.omega_det
            done)
          window)
  in
  ignore (stream ?backend ?criterion ~jobs grid views faults score : int);
  { views; faults; detect; omega }

let n_views t = Array.length t.views
let n_faults t = Array.length t.faults

let detectable_anywhere t j =
  Util.Floatx.fold_range (n_views t) ~init:false ~f:(fun acc i -> acc || t.detect.(i).(j))

let max_fault_coverage t =
  let m = n_faults t in
  if m = 0 then 0.0
  else
    let covered =
      Util.Floatx.fold_range m ~init:0 ~f:(fun acc j ->
          if detectable_anywhere t j then acc + 1 else acc)
    in
    float_of_int covered /. float_of_int m

let coverage_of_view t i =
  let m = n_faults t in
  if m = 0 then 0.0
  else
    let covered =
      Util.Floatx.fold_range m ~init:0 ~f:(fun acc j ->
          if t.detect.(i).(j) then acc + 1 else acc)
    in
    float_of_int covered /. float_of_int m

let best_omega_det_over t views j =
  List.fold_left (fun acc i -> Float.max acc t.omega.(i).(j)) 0.0 views

let best_omega_det t j =
  best_omega_det_over t (List.init (n_views t) Fun.id) j

let average_best_omega_det ?views t =
  let views = Option.value views ~default:(List.init (n_views t) Fun.id) in
  let m = n_faults t in
  if m = 0 then 0.0
  else
    Util.Floatx.fold_range m ~init:0.0 ~f:(fun acc j ->
        acc +. best_omega_det_over t views j)
    /. float_of_int m

let column t j = Array.init (n_views t) (fun i -> t.detect.(i).(j))
let row t i = Array.copy t.detect.(i)
