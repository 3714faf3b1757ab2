type strategy =
  | Naive
  | Seminaive
  | Magic
  | Supplementary
  | Supplementary_idb
  | Alexander
  | Tabled

type negation =
  | Auto
  | Stratified_only
  | Conditional
  | Well_founded

type t = {
  strategy : strategy;
  sips : Datalog_analysis.Sips.strategy;
  negation : negation;
  limits : Datalog_engine.Limits.t;
  profile : bool;
  trace : (string -> unit) option;
  checkpoint : Datalog_engine.Checkpoint.t;
  merge : bool;
  explain : bool;
  subsume : bool;
}

let default =
  { strategy = Alexander;
    sips = Datalog_analysis.Sips.Ltr;
    negation = Auto;
    limits = Datalog_engine.Limits.none;
    profile = false;
    trace = None;
    checkpoint = Datalog_engine.Checkpoint.none;
    merge = true;
    explain = false;
    subsume = true
  }

let strategy_name = function
  | Naive -> "naive"
  | Seminaive -> "seminaive"
  | Magic -> "magic"
  | Supplementary -> "supplementary"
  | Supplementary_idb -> "supplementary-idb"
  | Alexander -> "alexander"
  | Tabled -> "tabled"

let strategy_of_string = function
  | "naive" -> Some Naive
  | "seminaive" -> Some Seminaive
  | "magic" -> Some Magic
  | "supplementary" | "sup" -> Some Supplementary
  | "supplementary-idb" | "supidb" | "sup-idb" -> Some Supplementary_idb
  | "alexander" | "at" -> Some Alexander
  | "tabled" | "oldt" | "qsqr" -> Some Tabled
  | _ -> None

let negation_name = function
  | Auto -> "auto"
  | Stratified_only -> "stratified"
  | Conditional -> "conditional"
  | Well_founded -> "wellfounded"

let negation_of_string = function
  | "auto" -> Some Auto
  | "stratified" -> Some Stratified_only
  | "conditional" -> Some Conditional
  | "wellfounded" | "wf" -> Some Well_founded
  | _ -> None

let all_strategies =
  [ Naive; Seminaive; Magic; Supplementary; Supplementary_idb; Alexander;
    Tabled ]
