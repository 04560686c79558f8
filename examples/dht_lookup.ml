(* Distributed hash table lookups over name-independent routing.

     dune exec examples/dht_lookup.exe

   The paper's introduction motivates name-independent routing with exactly
   this application: DHTs assign nodes random identifiers (Chord-style), so
   the network cannot re-label nodes to embed topology - the routing scheme
   must work on top of the given names. This example builds a LAND-style
   locality-aware DHT on a clustered geometric network:

   - every node gets a random DHT identifier (the "name");
   - an object key is stored on the node whose identifier owns the key
     (successor of the key's hash in identifier space);
   - a GET hashes the key, finds the owner identifier, and routes to that
     *name* with the Theorem 1.1 scheme - no global directory needed.

   The output compares the cost of each lookup with the direct distance to
   the owner: the 9 + O(eps) guarantee means lookups for nearby data stay
   cheap, which is the "locality-aware" property. *)

module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Walker = Cr_sim.Walker
module Workload = Cr_sim.Workload
module Rng = Cr_graphgen.Rng
module Sfl = Cr_core.Scale_free_labeled
module Sfni = Cr_core.Scale_free_ni
module Ni_scheme = Cr_core.Ni_scheme

(* A toy 30-bit string hash (FNV-style) for object keys. *)
let hash_key key =
  let h = ref 0x811C9DC5 in
  String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x01000193) key;
  !h land 0x3FFFFFFF

let () =
  let graph =
    Cr_graphgen.Geometric.clustered ~clusters:6 ~per_cluster:24 ~spread:0.03
      ~k:3 ~seed:13
  in
  let metric = Metric.of_graph graph in
  let n = Metric.n metric in
  let nt = Netting_tree.build (Hierarchy.build metric) in
  let labeled = Sfl.build nt ~epsilon:0.5 in
  let naming = Workload.random_naming ~n ~seed:2024 in
  let dht =
    Sfni.build nt ~epsilon:0.5 ~naming ~underlying:(Sfl.to_underlying labeled)
  in
  Printf.printf "DHT over %d nodes (6 clusters); identifiers = node names\n\n" n;

  (* key -> owner name: the successor of hash(key) mod n in name space *)
  let owner_name key = hash_key key mod n in
  let keys =
    [ "alpha.mp3"; "paper.pdf"; "readme.md"; "video.mkv"; "backup.tar";
      "index.html"; "notes.txt"; "photo.jpg" ]
  in
  let rng = Rng.create 5 in
  Printf.printf "%-12s %-5s %-6s %-9s %-9s %s\n" "key" "owner" "client"
    "lookup" "direct" "stretch";
  let total_stretch = ref 0.0 in
  List.iter
    (fun key ->
      let name = owner_name key in
      let owner = naming.Workload.node_of.(name) in
      (* a random client issues the GET *)
      let client = Rng.int rng n in
      if client <> owner then begin
        let w = Walker.create metric ~start:client ~max_hops:1_000_000 in
        Ni_scheme.walk (Sfni.scheme dht) w ~dest_name:name;
        let direct = Metric.dist metric client owner in
        let stretch = Walker.cost w /. direct in
        total_stretch := !total_stretch +. stretch;
        Printf.printf "%-12s %5d %6d %9.3f %9.3f %7.2f\n" key name client
          (Walker.cost w) direct stretch
      end)
    keys;
  Printf.printf
    "\nEvery lookup reached its owner knowing only the DHT identifier;\n";
  Printf.printf
    "routing tables are polylogarithmic (max %d bits/node), no node stores\n"
    (let best = ref 0 in
     for v = 0 to n - 1 do
       best := max !best (Ni_scheme.table_bits (Sfni.scheme dht) v)
     done;
     !best);
  Printf.printf "a global name directory.\n"
