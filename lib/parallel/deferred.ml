type 'a t = {
  mutex : Mutex.t;
  filled : Condition.t;
  mutable cell : ('a, exn * Printexc.raw_backtrace option) result option;
}

let create () =
  { mutex = Mutex.create (); filled = Condition.create (); cell = None }

let fill_cell t r =
  Mutex.lock t.mutex;
  match t.cell with
  | Some _ ->
      Mutex.unlock t.mutex;
      invalid_arg "Deferred.fill: already filled"
  | None ->
      t.cell <- Some r;
      Condition.broadcast t.filled;
      Mutex.unlock t.mutex

let fill t r =
  fill_cell t (match r with Ok v -> Ok v | Error e -> Error (e, None))

let fill_error t e bt = fill_cell t (Error (e, Some bt))

let await t =
  Mutex.lock t.mutex;
  while t.cell = None do
    Condition.wait t.filled t.mutex
  done;
  let r = Option.get t.cell in
  Mutex.unlock t.mutex;
  match r with
  | Ok v -> v
  | Error (e, Some bt) -> Printexc.raise_with_backtrace e bt
  | Error (e, None) -> raise e

let is_filled t =
  Mutex.lock t.mutex;
  let b = t.cell <> None in
  Mutex.unlock t.mutex;
  b
