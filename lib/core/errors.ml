module Limits = Datalog_engine.Limits

type t =
  | Unsafe_program of string list
  | Not_stratified of string
  | Evaluation of string

let message = function
  | Unsafe_program msgs -> String.concat "\n" msgs
  | Not_stratified msg -> msg
  | Evaluation msg -> msg

let pp ppf e = Format.pp_print_string ppf (message e)

let exit_code = function
  | Unsafe_program _ | Not_stratified _ | Evaluation _ -> 1

let exhaustion_exit_code = function
  | Limits.Timeout -> 3
  | Limits.Fact_limit -> 4
  | Limits.Iteration_limit -> 5
  | Limits.Tuple_limit -> 6
  | Limits.Cancelled -> 7

let corrupt_snapshot_exit_code = 8
