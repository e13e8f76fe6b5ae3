package storage

// freeSpace indexes heap pages by the bytes they have free and answers
// "lowest page with at least n bytes free" in O(log pages): a max-tree
// over page ids whose leaf for a page holds its free bytes (-1 for pages
// that are not heap pages). Lowest page first makes placement a function
// of the operation sequence alone — the same loads produce the same pages.
type freeSpace struct {
	n    int     // leaves, a power of two
	tree []int32 // tree[1] is the root; page id's leaf is tree[n+id]
}

// set records that page id has free bytes available.
func (f *freeSpace) set(id PageID, free int) {
	for int(id) >= f.n {
		f.grow()
	}
	i := f.n + int(id)
	f.tree[i] = int32(free)
	for i /= 2; i >= 1; i /= 2 {
		f.tree[i] = max(f.tree[2*i], f.tree[2*i+1])
	}
}

// grow doubles the leaf count, keeping every recorded page.
func (f *freeSpace) grow() {
	n := max(64, 2*f.n)
	t := make([]int32, 2*n)
	for i := range t {
		t[i] = -1
	}
	if f.n > 0 {
		copy(t[n:], f.tree[f.n:])
	}
	for i := n - 1; i >= 1; i-- {
		t[i] = max(t[2*i], t[2*i+1])
	}
	f.n, f.tree = n, t
}

// firstFit returns the lowest page with at least need bytes free.
func (f *freeSpace) firstFit(need int) (PageID, bool) {
	if f.n == 0 || int(f.tree[1]) < need {
		return 0, false
	}
	i := 1
	for i < f.n {
		i *= 2
		if int(f.tree[i]) < need {
			i++
		}
	}
	return PageID(i - f.n), true
}
