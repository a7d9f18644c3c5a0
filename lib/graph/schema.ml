type location = Household | Subway | Workplace | SocialVenue | Other

type setting = Family | Social | Work

type vertex_data = {
  infected : bool;
  t_inf : int option;
  age : int;
  household : int;
}

type edge_data = {
  duration_min : int;
  contacts : int;
  last_contact : int;
  location : location;
  setting : setting;
}

let age_group age = max 0 (min 9 (age / 10))
let age_groups = 10

let stage_of_delay delay = if delay <= 5 then 0 else 1
let stages = 2

let on_subway = function Subway -> true | Household | Workplace | SocialVenue | Other -> false
let is_household = function Household -> true | Subway | Workplace | SocialVenue | Other -> false

let t_inf_days = 14
