package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/machine"
	"repro/internal/simm"
)

// The skeleton arena: replay jobs for the same recorded layout rebuild
// the same address-space skeleton (page tables, region table, category
// runs) and the same large machine-side tables (chunked seen arrays,
// dirTab, prefetch timeTabs) every time. Pooling retired skeletons and
// wiping them is equivalent to building fresh ones — NewFromLayout
// materializes no contents (lazy chunks read as zero, which WipeContents
// restores exactly), replay never mutates page categories or homes, and
// Machine reuse flushes every cache and table back to its cold state —
// so reuse is byte-identical by construction while eliminating the
// dominant per-job allocations left after PR 2.

// skeleton is one pooled replay system: the reconstructed memory, the
// machine most recently attached to it (reused when the next replay's
// configuration matches, mined for tables when it doesn't), and the
// decode buffers its replays fill.
type skeleton struct {
	fp     string
	mem    *simm.Memory
	mach   *machine.Machine
	decode decodeBufs
}

// arenaMax bounds retained skeletons across all layouts; beyond it,
// retired skeletons are simply dropped for the GC.
const arenaMax = 8

var arena = struct {
	sync.Mutex
	pools map[string][]*skeleton
	total int
}{pools: map[string][]*skeleton{}}

// layoutFP fingerprints a layout: two replays share a skeleton only if
// every field that shapes the reconstructed address space matches.
func layoutFP(l *simm.Layout) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d", l.Nodes)
	for _, r := range l.Regions {
		fmt.Fprintf(&b, "|%s;%d;%d;%d", r.Name, r.Size, r.Cat, r.Node)
	}
	b.WriteByte('/')
	for _, c := range l.Cats {
		fmt.Fprintf(&b, "|%d;%d", c.Pages, c.Cat)
	}
	return b.String()
}

func acquireSkeleton(l simm.Layout) (*skeleton, error) {
	fp := layoutFP(&l)
	arena.Lock()
	if q := arena.pools[fp]; len(q) > 0 {
		sk := q[len(q)-1]
		q[len(q)-1] = nil
		arena.pools[fp] = q[:len(q)-1]
		arena.total--
		arena.Unlock()
		sk.mem.WipeContents()
		arenaHits.Add(1)
		return sk, nil
	}
	arena.Unlock()
	arenaMisses.Add(1)
	mem, err := simm.NewFromLayout(l)
	if err != nil {
		return nil, err
	}
	return &skeleton{fp: fp, mem: mem}, nil
}

// releaseSkeleton returns a skeleton after a successful replay; failed
// replays drop theirs (their state is suspect).
func releaseSkeleton(sk *skeleton) {
	arena.Lock()
	if arena.total < arenaMax {
		arena.pools[sk.fp] = append(arena.pools[sk.fp], sk)
		arena.total++
	}
	arena.Unlock()
}
