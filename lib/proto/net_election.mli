(** Distributed r-net election.

    Computes, by message passing alone, exactly the greedy r-net that the
    centralized [Cr_nets.Rnet.greedy] builds (scan ids ascending, join the
    net when no smaller-id member lies within distance < r):

    - phase 1 (discovery): every node floods its id within radius r (a
      budgeted Bellman-Ford flood), so each node learns the ids and
      distances of all nodes strictly within r;
    - phase 2 (election): a node joins the net once every smaller-id node
      within < r has announced a decision and none of them joined; decisions
      flood within the same radius. A larger-id neighbor cannot pre-empt a
      smaller one (it must wait for it), which is why the asynchronous
      outcome equals the sequential greedy scan.

    The per-phase message counts cost out the preprocessing of the paper's
    hierarchy of 2^i-nets in the asynchronous message-passing model. *)

type status =
  | In
  | Out

type result = {
  net : int list;  (** elected net members, ascending *)
  status : status array;
  nearest_in : (int * float) option array;
      (** per node, the nearest elected member heard of strictly within r
          (members map to themselves at distance 0) *)
  discovery : Network.stats;
  election : Network.stats;
}

(** [run g ~r] elects an r-net of the whole node set. [seeds] are
    pre-elected members (used to build the *nested* hierarchy: level i's
    election is seeded with level i+1's net, exactly like the centralized
    construction of Section 2); they block any non-seed within < r
    regardless of id. [via] selects the transport for both phases (default
    [Network.local ()]); the flood-dedup guards keep both handlers
    idempotent under at-least-once delivery. [label] (default
    ["net_election"]) prefixes the per-phase protocol tags — cost
    accounting and protocol errors report [label ^ ".discovery"] /
    [label ^ ".election"], which is how [Dist_hierarchy] attributes cost
    to individual levels. Raises [Invalid_argument] unless [r > 0] (NaN
    included) or if a seed is not a node, and
    [Network.Protocol_error] (protocols ["net_election.discovery"] /
    ["net_election.election"]) if a phase exceeds 1000 + 200n² messages,
    or (protocol ["net_election"]) if some node ends
    the election undecided. *)
val run :
  ?via:Network.runner -> ?seeds:int list -> ?label:string -> Cr_metric.Graph.t -> r:float -> result
