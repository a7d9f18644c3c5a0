(** The paper's default parameters (Figure 4) and quantities derived
    from them, used by every extrapolated figure. *)

type t = {
  n_devices : float;  (** N = 1.1e6 *)
  hops : int;  (** k = 3 *)
  replicas : int;  (** r = 2 *)
  fraction : float;  (** f = 0.1 *)
  committee_size : int;  (** c = 10 *)
  degree : int;  (** d = 10 *)
  malicious : float;  (** the MC assumption's 1-2%: default 0.02 *)
}

val paper : t

val ciphertext_bytes : float
(** Size of one degree-1 ciphertext at the paper's BGV parameters
    (~4.5 MB; the paper reports 4.3 MB). *)

val pp : Format.formatter -> t -> unit
