package machine

import "unsafe"

// bytes is the size of the leaves the table holds.
func (t *seenTab) bytes() int {
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	return n
}

// bytes is the size of the leaves the table holds.
func (t *dirTab) bytes() int {
	n := 0
	for _, c := range t.chunks {
		n += len(c) * int(unsafe.Sizeof(dirEntry{}))
	}
	return n
}

// TableBytes reports the bytes m holds in miss-history leaves (every
// node's L1 and L2 seen tables) and in directory leaves, for the
// footprint pins of tests outside the package.
func TableBytes(m *Machine) (seen, dir int) {
	for _, nd := range m.nodes {
		seen += nd.l1.seen.bytes() + nd.l2.seen.bytes()
	}
	return seen, m.dir.bytes()
}
