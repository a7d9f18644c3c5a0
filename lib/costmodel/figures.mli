(** Regeneration of every table and figure in the paper's evaluation
    (§6, §7). Each function returns structured data; {!render} prints a
    text table, which is what `bench/main.exe` emits.

    Figure 5's curves come in two flavours: the closed-form model at
    paper scale (what the figures plot), and Monte Carlo runs of the
    actual simulator at a simulable population, which the test suite
    uses to validate the model. *)

type series = { label : string; points : (float * float) list }

type figure = {
  id : string;
  title : string;
  x_label : string;
  y_label : string;
  series : series list;
  notes : string list;
}

val fig5_monte_carlo :
  n:int -> seed:int64 -> figure
(** Simulator-vs-model validation at small scale: measured goodput and
    anonymity against the closed forms. *)

val sec6_4_device_costs : Device_compute.unit_costs -> figure

val sec7_baseline : n:int -> seed:int64 -> figure
(** Plaintext Q1 on a generated graph, measured and extrapolated to the
    paper's billion-vertex anecdote (~5 s). *)

val all : unit -> figure list
(** Everything except the measurement-dependent entries
    ([fig5_monte_carlo], [sec6_4_device_costs], [sec7_baseline]). *)

val render : figure -> string
