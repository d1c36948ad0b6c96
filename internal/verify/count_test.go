package verify

import "testing"

// TestCheckPipelineCount: the pipeline count must equal a proven
// reference count, must not exceed an unproven one (an exact search
// that ran out of its node budget), and is at least 1.
func TestCheckPipelineCount(t *testing.T) {
	for _, tc := range []struct {
		k, want int
		proven  bool
		ok      bool
	}{
		{3, 3, true, true},
		{2, 3, true, false},
		{4, 3, true, false},
		{3, 3, false, true},
		{2, 3, false, true}, // the word search proved a smaller cover
		{4, 3, false, false},
		{0, 0, true, false},
		{0, 3, false, false},
	} {
		rep := &Report{}
		checkPipelineCount(rep, 0, tc.k, tc.want, tc.proven)
		if rep.Ok() != tc.ok {
			t.Errorf("count %d against %d (proven %v): ok %v, want %v (%v)",
				tc.k, tc.want, tc.proven, rep.Ok(), tc.ok, rep.Err())
		}
	}
}
