package flow

// linkSlab is the number of links one slab allocation holds. A Lustre
// system builds about 1,700 links, so its links come from a handful of
// allocations instead of one heap cell each.
const linkSlab = 128

// linkSet is a net's link registry: the links in creation order, stored
// in fixed-size slabs so their addresses never move, plus an
// open-addressing set over their names. The set holds 1-based link
// indices keyed by an FNV-1a hash of the name (0 marks an empty slot) and
// stays at most half full; it replaces a map[string]bool, whose buckets
// cost several times the links they index.
type linkSet struct {
	slabs [][]Link
	n     int
	names []int32
}

// at returns the i-th link created.
func (s *linkSet) at(i int) *Link { return &s.slabs[i/linkSlab][i%linkSlab] }

// slot returns the name set's slot holding name, or the empty slot where
// it would go. The set must have at least one empty slot.
func (s *linkSet) slot(name string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	mask := len(s.names) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		if id := s.names[i]; id == 0 || s.at(int(id)-1).name == name {
			return i
		}
	}
}

// has reports whether a link named name exists.
func (s *linkSet) has(name string) bool {
	return len(s.names) > 0 && s.names[s.slot(name)] != 0
}

// add appends a link, reporting false (and adding nothing) when the name
// is taken.
func (s *linkSet) add(name string, model CapacityModel, net *Net) (*Link, bool) {
	if (s.n+1)*2 > len(s.names) {
		s.rehash(max(16, 2*len(s.names)))
	}
	i := s.slot(name)
	if s.names[i] != 0 {
		return nil, false
	}
	if s.n%linkSlab == 0 {
		s.slabs = append(s.slabs, make([]Link, 0, linkSlab))
	}
	slab := &s.slabs[len(s.slabs)-1]
	*slab = append(*slab, Link{name: name, model: model, net: net, compIdx: -1})
	s.n++
	s.names[i] = int32(s.n)
	return &(*slab)[len(*slab)-1], true
}

// rehash rebuilds the name set with size slots (a power of two).
func (s *linkSet) rehash(size int) {
	s.names = make([]int32, size)
	for id := 1; id <= s.n; id++ {
		s.names[s.slot(s.at(id-1).name)] = int32(id)
	}
}
