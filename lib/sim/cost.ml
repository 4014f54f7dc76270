type t = {
  fs_read_per_byte : float;
  fs_write_per_byte : float;
  nvram_per_byte : float;
  fs_op : float;
  dump_format_per_byte : float;
  dump_per_file : float;
  dump_per_dirent : float;
  dump_map_per_inode : float;
  restore_create_per_file : float;
  restore_write_per_byte : float;
  image_per_byte : float;
  image_per_block : float;
}

let ns = 1e-9
let us = 1e-6

(* Calibration targets from Table 3 (500 MHz Alpha, one DLT-7000):
   - logical dump, "dumping files": 25% CPU at tape speed (~7 MB/s)
     => ~35 ns of CPU per byte moved through the logical read path.
   - physical dump, "dumping blocks": 5% CPU at ~8.5 MB/s => ~6 ns/B.
   - logical restore, "filling in data": 40% CPU => ~46 ns/B.
   - physical restore: 11% CPU => ~12 ns/B. *)
let f630 =
  {
    fs_read_per_byte = 15.0 *. ns;
    fs_write_per_byte = 24.0 *. ns;
    nvram_per_byte = 10.0 *. ns;
    fs_op = 8.0 *. us;
    dump_format_per_byte = 20.0 *. ns;
    dump_per_file = 120.0 *. us;
    dump_per_dirent = 25.0 *. us;
    dump_map_per_inode = 30.0 *. us;
    restore_create_per_file = 350.0 *. us;
    restore_write_per_byte = 12.0 *. ns;
    image_per_byte = 6.0 *. ns;
    image_per_block = 4.0 *. us;
  }

let charge cpu secs = match cpu with Some r -> Resource.charge r secs | None -> ()
