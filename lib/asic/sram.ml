let word_bits = 112
let entries_per_word ~entry_bits =
  assert (entry_bits > 0);
  if entry_bits >= word_bits then 1 else word_bits / entry_bits

let words_for_entries ~entry_bits ~entries =
  assert (entries >= 0);
  if entries = 0 then 0
  else if entry_bits <= word_bits then
    let per = entries_per_word ~entry_bits in
    (entries + per - 1) / per
  else
    let words_per_entry = (entry_bits + word_bits - 1) / word_bits in
    entries * words_per_entry

let bits_for_entries ~entry_bits ~entries = words_for_entries ~entry_bits ~entries * word_bits

let mib_of_bits bits = float_of_int bits /. 8. /. 1024. /. 1024.
