(* The benchmark's own spans: recorded around calls into the program's
   public functions, kept in memory and written out once at the end.
   The program's Obs.Trace stays off. Single-domain by design — spans
   are only opened from the benchmark's main domain. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start_ns : int64;
  end_ns : int64;
  workload : string;
}

let now_ns = Monotonic_clock.now
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let since t0 = seconds_between t0 (now_ns ())

let recorded = ref []
let open_ = ref []
let next_id = ref 0
let workload = ref ""

let with_ name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ with p :: _ -> p | [] -> -1 in
  open_ := id :: !open_;
  let start_ns = now_ns () in
  let close () =
    let end_ns = now_ns () in
    open_ := List.tl !open_;
    recorded :=
      { id; name; parent; start_ns; end_ns; workload = !workload } :: !recorded
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let duration s = seconds_between s.start_ns s.end_ns

(* Total seconds spent in spans of this name. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 !recorded

let all () = List.rev !recorded

(* Seconds of the span closed most recently. *)
let last_duration () =
  match !recorded with s :: _ -> duration s | [] -> 0.0
