type t = {
  budget : int;
  mutable inflight : int;
  mutable ewma_us : float;
  mutable admitted : int;
  mutable shed_budget : int;
  mutable shed_deadline : int;
}

(* The EWMA weight of the newest completion. *)
let alpha = 0.2

let create ?(budget = 64) () =
  if budget < 1 then invalid_arg "Admission.create: budget < 1";
  {
    budget;
    inflight = 0;
    ewma_us = 0.0;
    admitted = 0;
    shed_budget = 0;
    shed_deadline = 0;
  }

type verdict = Admitted | Shed of string

let try_admit t ~now_us ~deadline_us =
  if t.inflight >= t.budget then begin
    t.shed_budget <- t.shed_budget + 1;
    Shed
      (Printf.sprintf "shed: inflight budget full (%d/%d)" t.inflight
         t.budget)
  end
  else if
    (* Predicted completion = now + queue-ahead-of-us service time + our
       own; a fresh estimator (no completions yet) predicts 0 and admits
       everything — it learns the real service time from the first few
       completions instead of guessing. *)
    deadline_us > 0
    && now_us
       + int_of_float (t.ewma_us *. float_of_int (t.inflight + 1))
       > deadline_us
  then begin
    t.shed_deadline <- t.shed_deadline + 1;
    Shed
      (Printf.sprintf
         "shed: deadline unmeetable (est %dus, %dus left)"
         (int_of_float (t.ewma_us *. float_of_int (t.inflight + 1)))
         (deadline_us - now_us))
  end
  else begin
    t.inflight <- t.inflight + 1;
    t.admitted <- t.admitted + 1;
    Admitted
  end

let finish t ~elapsed_us =
  if t.inflight > 0 then t.inflight <- t.inflight - 1;
  let e = float_of_int (max 0 elapsed_us) in
  t.ewma_us <-
    (if t.ewma_us = 0.0 then e
     else (alpha *. e) +. ((1.0 -. alpha) *. t.ewma_us))

let inflight t = t.inflight
let ewma_us t = int_of_float t.ewma_us

type totals = { admitted : int; shed_budget : int; shed_deadline : int }

let totals (t : t) =
  {
    admitted = t.admitted;
    shed_budget = t.shed_budget;
    shed_deadline = t.shed_deadline;
  }
