type t = {
  piece : int;
  emit : string -> unit;
  mutable buf : Bytes.t;
  mutable len : int;
}

let create ~piece ~emit =
  if piece <= 0 then invalid_arg "Stage.create";
  { piece; emit; buf = Bytes.create (2 * piece); len = 0 }

let add t s =
  let slen = String.length s in
  let cap = Bytes.length t.buf in
  if t.len + slen > cap then begin
    let ncap = ref (cap * 2) in
    while t.len + slen > !ncap do
      ncap := !ncap * 2
    done;
    let nb = Bytes.create !ncap in
    Bytes.blit t.buf 0 nb 0 t.len;
    t.buf <- nb
  end;
  Bytes.blit_string s 0 t.buf t.len slen;
  t.len <- t.len + slen;
  if t.len >= t.piece then begin
    let off = ref 0 in
    while t.len - !off >= t.piece do
      t.emit (Bytes.sub_string t.buf !off t.piece);
      off := !off + t.piece
    done;
    Bytes.blit t.buf !off t.buf 0 (t.len - !off);
    t.len <- t.len - !off
  end

let flush t =
  if t.len > 0 then begin
    t.emit (Bytes.sub_string t.buf 0 t.len);
    t.len <- 0
  end
