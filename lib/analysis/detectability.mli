(** Structural detectability pre-pass over the configuration space.

    {!Circuit.Influence} gives, per emulated configuration, a sound
    over-approximation of the elements able to affect the output there.
    This module lifts that per-configuration pass into a
    (configuration x fault) boolean matrix — [true] meaning "fault f is
    {e structurally undetectable} in configuration C_i" — which lint
    reports as F001/P001. Soundness: a marked pair reads "not detected"
    with ω 0 in the campaign's matrix (pinned by tests on tow-thomas;
    structurally dead views whose round-off response clears the
    measurement floor can still vote, see ROADMAP item 1). *)

type t = {
  configs : Multiconfig.Configuration.t array;
      (** The test configurations, in index order. *)
  faults : Fault.t array;
  undetectable : bool array array;
      (** [undetectable.(i).(j)]: fault [j] cannot affect the output in
          configuration [configs.(i)]. *)
  influential : (int * string list) list;
      (** Per configuration index: the passive elements that could
          affect the output there (the complement view, kept for
          reporting). *)
}

val analyse :
  ?follower_model:Circuit.Element.opamp_model ->
  ?faults:Fault.t list ->
  Multiconfig.Transform.t ->
  t
(** [faults] defaults to one +20 % deviation per passive. *)

val skip_count : t -> int
(** Number of [true] entries — the (configuration, fault) pairs that
    provably yield no detection. *)

val total_pairs : t -> int

val undetectable_everywhere : t -> Fault.t list
(** Faults no test configuration can structurally detect — reported by
    lint as warnings (the DFT cannot reach them at all). *)
