type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }
let is_empty h = h.len = 0
let size h = h.len

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h.data.(i) h.data.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && less h.data.(l) h.data.(!smallest) then smallest := l;
  if r < h.len && less h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let grow h =
  let cap = Array.length h.data in
  let new_cap = Stdlib.max 16 (2 * cap) in
  let data = Array.make new_cap h.data.(0) in
  Array.blit h.data 0 data 0 h.len;
  h.data <- data

let push h ~time payload =
  if Float.is_nan time then invalid_arg "Event_heap.push: NaN time";
  let entry = { time; seq = h.next_seq; payload } in
  h.next_seq <- h.next_seq + 1;
  if h.len = 0 && Array.length h.data = 0 then h.data <- Array.make 16 entry;
  if h.len = Array.length h.data then grow h;
  h.data.(h.len) <- entry;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.data.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.data.(0) <- h.data.(h.len);
      sift_down h 0
    end;
    Some (top.time, top.payload)
  end
