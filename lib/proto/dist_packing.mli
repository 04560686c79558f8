(** Distributed ball packing (the Packing Lemma 2.3 construction by message
    passing).

    Greedy order: ascending (r_u(j), id). Two candidate balls conflict iff
    their metric balls share a node; detection is by *witnesses*: every
    node inside two candidates' floods reports the conflict back to both
    centers along the reverse flood paths (an echo/convergecast — reverse
    pointers always decrease the recorded distance, so forwarding cannot
    loop). The election then follows the familiar wait-for-smaller rule:
    a candidate accepts once every strictly smaller conflicting candidate
    has announced a decision and none of them accepted; decisions flood the
    candidate's own ball and are relayed to conflict partners by the same
    witnesses.

    Three phases run to quiescence: radii (Dist_radii, shared across
    scales), candidate floods + conflict discovery, and the election.
    The outcome equals the centralized greedy over *metric* balls — the
    test suite checks that exactly, and that on tie-free metrics it also
    coincides with [Cr_packing.Ball_packing]'s canonical-ball packing. *)

type result = {
  accepted : int list;  (** packed ball centers, ascending *)
  radius : float array;  (** r_u(j) per node, from the shared radii phase *)
  discovery : Network.stats;
  election : Network.stats;
}

(** [run g ~distances ~j] packs scale [j] (balls of 2^j nodes), given the
    distance profiles from [Dist_radii.run]. [via] selects the transport
    for both phases (default [Network.local ()]). Raises
    [Network.Protocol_error] (protocol ["dist_packing"]) if a phase exceeds
    1000 + 500n² messages or some candidate ends the election
    undecided. *)
val run :
  ?via:Network.runner ->
  Cr_metric.Graph.t ->
  distances:float array array ->
  j:int ->
  result
