(** Linear programming for the reproduction: the model builder (included
    below), the LP engine ({!Simplex}) and a small 0/1 branch-and-bound
    MIP layer ({!Mip}). *)

module Simplex = Simplex
(** The engine: bounded-variable primal/dual simplex with warm starts,
    plus a dense standard-form front end. *)

module Mip = Mip
(** 0/1 mixed-integer solving by LP-based branch and bound. *)

include module type of struct include Model end
