// wican fixture (never compiled): a work scheduler that hands out morsel
// indices from a WC_GUARDED_BY claim cursor. A correct scheduler claims under
// its mutex; this one bumps the cursor with no lock on the fast path and
// reads it after the lock scope closed. Expected: three unguarded-access
// findings.
struct Mutex {
  void Lock();
  void Unlock();
};

struct MutexLock {
  explicit MutexLock(Mutex* mu);
};

struct MorselScheduler {
  Mutex mu;
  unsigned long next_index WC_GUARDED_BY(mu);
  unsigned long num_morsels;
  bool Next(unsigned long* out);
  unsigned long Remaining();
};

bool MorselScheduler::Next(unsigned long* out) {
  unsigned long claimed = next_index;  // BAD: racy read, mu not held
  next_index = claimed + 1;            // BAD half of the same race (one site)
  if (claimed >= num_morsels) return false;
  *out = claimed;
  return true;
}

unsigned long MorselScheduler::Remaining() {
  {
    MutexLock lock(&mu);
    if (next_index >= num_morsels) return 0;  // fine: mu held
  }
  return num_morsels - next_index;  // BAD: lock released at end of block
}
