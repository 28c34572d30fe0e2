package analysis

import (
	"go/types"
	"reflect"
	"sync"
)

// A FactStore holds facts for a whole driver run, which is one process:
// facts are keyed by types.Object identity — the loader type-checks every
// module package from source in one importer universe, so an object seen
// while analyzing a dependency is the same object its importers resolve.
type FactStore struct {
	mu   sync.Mutex
	objs map[factKey]Fact
}

type factKey struct {
	analyzer string
	obj      types.Object
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{objs: make(map[factKey]Fact)}
}

func (s *FactStore) setObject(analyzer string, obj types.Object, fact Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objs[factKey{analyzer, obj}] = fact
}

func (s *FactStore) getObject(analyzer string, obj types.Object, fact Fact) bool {
	s.mu.Lock()
	got, ok := s.objs[factKey{analyzer, obj}]
	s.mu.Unlock()
	if !ok {
		return false
	}
	return copyFact(got, fact)
}

// copyFact copies src into dst via reflection; both must be pointers to the
// same concrete type.
func copyFact(src, dst Fact) bool {
	sv := reflect.ValueOf(src)
	dv := reflect.ValueOf(dst)
	if sv.Type() != dv.Type() || dv.Kind() != reflect.Pointer || dv.IsNil() {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}
