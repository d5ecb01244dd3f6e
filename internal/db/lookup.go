package db

import (
	"cmp"
	"slices"
	"sync"
)

// lookupIndex answers the by-name lookups of a sealed view — Group,
// GroupMerged and KeyByString, which the rule checker issues once per
// documented rule — from maps instead of a scan over every group or a
// rendering of every key. A sealed view's groups never change, so the
// index is built once, on first use; the sync.Once makes that safe for
// lockdocd's concurrent readers of one snapshot. A live store keeps
// scanning, because its groups change with every commit.
type lookupIndex struct {
	once   sync.Once
	groups map[groupName][]*ObsGroup
	keys   map[string]KeyID // rendered key -> first ID with that rendering
	nkeys  int              // keys covered; later interned keys are scanned
}

// groupName is the name-level identity of an observation group; the
// groups sharing one differ in subclass (or, for a type defined twice,
// in type ID).
type groupName struct {
	typeName, member string
	write            bool
}

func nameOf(g *ObsGroup) groupName {
	return groupName{typeName: g.Type.Name, member: g.MemberName(), write: g.Key.Write}
}

// compareGroupKeys orders groups sharing a name deterministically.
func compareGroupKeys(a, b *ObsGroup) int {
	return cmp.Or(
		cmp.Compare(a.Key.TypeID, b.Key.TypeID),
		cmp.Compare(a.Key.Subclass, b.Key.Subclass),
		cmp.Compare(a.Key.Member, b.Key.Member),
	)
}

// index returns the sealed view's lookup index, building it once.
func (db *DB) index() *lookupIndex {
	x := &db.lookup
	x.once.Do(func() {
		x.groups = make(map[groupName][]*ObsGroup, len(db.groups))
		for _, g := range db.groups {
			n := nameOf(g)
			x.groups[n] = append(x.groups[n], g)
		}
		for _, gs := range x.groups {
			slices.SortFunc(gs, compareGroupKeys)
		}
		x.keys = make(map[string]KeyID, len(db.keys))
		for i, k := range db.keys {
			s := k.String()
			if _, dup := x.keys[s]; !dup {
				x.keys[s] = KeyID(i)
			}
		}
		x.nkeys = len(db.keys)
	})
	return x
}

// named returns the groups of one (type, member, access) name, every
// subclass included, in compareGroupKeys order.
func (db *DB) named(typeName, member string, write bool) []*ObsGroup {
	n := groupName{typeName: typeName, member: member, write: write}
	if db.sealed {
		return db.index().groups[n]
	}
	var out []*ObsGroup
	for _, g := range db.groups {
		if nameOf(g) == n {
			out = append(out, g)
		}
	}
	slices.SortFunc(out, compareGroupKeys)
	return out
}

// KeyByString finds an interned key by its rendered form.
func (db *DB) KeyByString(s string) (KeyID, bool) {
	from := 0
	if db.sealed {
		x := db.index()
		if id, ok := x.keys[s]; ok {
			return id, true
		}
		from = x.nkeys
	}
	for i := from; i < len(db.keys); i++ {
		if db.keys[i].String() == s {
			return KeyID(i), true
		}
	}
	return 0, false
}
