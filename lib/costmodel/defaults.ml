module Params = Mycelium_bgv.Params
module Analysis = Mycelium_query.Analysis
module Corpus = Mycelium_query.Corpus

type t = {
  n_devices : float;
  hops : int;
  replicas : int;
  fraction : float;
  committee_size : int;
  degree : int;
  malicious : float;
}

let paper =
  {
    n_devices = 1.1e6;
    hops = 3;
    replicas = 2;
    fraction = 0.1;
    committee_size = 10;
    degree = 10;
    malicious = 0.02;
  }

let ciphertext_bytes = float_of_int (Params.ciphertext_bytes Params.paper ~degree:1)

let pp fmt t =
  Format.fprintf fmt
    "N=%.2g devices, k=%d hops, r=%d replicas, f=%.2f forwarders, c=%d committee, d=%d degree bound, %.1f%% malicious"
    t.n_devices t.hops t.replicas t.fraction t.committee_size t.degree (100. *. t.malicious)
