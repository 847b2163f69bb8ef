package keys

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMakeParseRoundTrip(t *testing.T) {
	f := func(ukey []byte, seqRaw uint64, isDelete bool) bool {
		seq := SeqNum(seqRaw) & MaxSeqNum
		kind := KindValue
		if isDelete {
			kind = KindDelete
		}
		ikey := MakeInternalKey(nil, ukey, seq, kind)
		gu, gs, gk, ok := ParseInternalKey(ikey)
		return ok && bytes.Equal(gu, ukey) && gs == seq && gk == kind
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsShortAndBadKind(t *testing.T) {
	if _, _, _, ok := ParseInternalKey([]byte("short")); ok {
		t.Fatal("parsed a 5-byte key")
	}
	bad := MakeInternalKey(nil, []byte("k"), 1, KindValue)
	bad[len(bad)-8] = 99 // corrupt the kind byte
	if _, _, _, ok := ParseInternalKey(bad); ok {
		t.Fatal("parsed an invalid kind")
	}
}

func TestCompareInternalOrdering(t *testing.T) {
	a1 := MakeInternalKey(nil, []byte("a"), 100, KindValue)
	a2 := MakeInternalKey(nil, []byte("a"), 5, KindValue)
	b1 := MakeInternalKey(nil, []byte("b"), 1, KindValue)
	aDel := MakeInternalKey(nil, []byte("a"), 100, KindDelete)

	if CompareInternal(a1, a2) >= 0 {
		t.Error("newer sequence must sort before older for same user key")
	}
	if CompareInternal(a2, b1) >= 0 {
		t.Error("user key order must dominate")
	}
	if CompareInternal(a1, aDel) >= 0 {
		t.Error("value kind must sort before delete at same seq")
	}
	if CompareInternal(a1, a1) != 0 {
		t.Error("equal keys must compare equal")
	}
}

func TestCompareInternalAgreesWithParsedOrder(t *testing.T) {
	f := func(u1, u2 []byte, s1, s2 uint16) bool {
		k1 := MakeInternalKey(nil, u1, SeqNum(s1), KindValue)
		k2 := MakeInternalKey(nil, u2, SeqNum(s2), KindValue)
		c := CompareInternal(k1, k2)
		uc := bytes.Compare(u1, u2)
		if uc != 0 {
			return c == uc
		}
		switch {
		case s1 > s2:
			return c < 0
		case s1 < s2:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUserKeyPanicsOnShortKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	UserKey([]byte("abc"))
}

func TestSeparatorInternalProperties(t *testing.T) {
	f := func(u1, u2 []byte, s1, s2 uint16) bool {
		if bytes.Compare(u1, u2) >= 0 {
			u1, u2 = u2, u1
		}
		if bytes.Equal(u1, u2) {
			u2 = append(append([]byte(nil), u2...), 0)
		}
		a := MakeInternalKey(nil, u1, SeqNum(s1), KindValue)
		b := MakeInternalKey(nil, u2, SeqNum(s2), KindValue)
		sep := AppendSeparatorInternal(nil, a, b)
		// a <= sep < b in internal order.
		return CompareInternal(a, sep) <= 0 && CompareInternal(sep, b) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeparatorShortens(t *testing.T) {
	a := MakeInternalKey(nil, []byte("apple"), 7, KindValue)
	b := MakeInternalKey(nil, []byte("axe"), 9, KindValue)
	sep := AppendSeparatorInternal(nil, a, b)
	if len(UserKey(sep)) >= len("apple") {
		t.Fatalf("separator %q not shortened", UserKey(sep))
	}
}

func TestSuccessorInternal(t *testing.T) {
	f := func(u []byte, s uint16) bool {
		a := MakeInternalKey(nil, u, SeqNum(s), KindValue)
		suc := AppendSuccessorInternal(nil, a)
		return CompareInternal(a, suc) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// All-0xff keys cannot shorten.
	a := MakeInternalKey(nil, []byte{0xff, 0xff}, 3, KindValue)
	if got := AppendSuccessorInternal(nil, a); CompareInternal(a, got) > 0 {
		t.Fatal("successor of 0xff-key sorted before it")
	}
}

func TestKindString(t *testing.T) {
	if KindValue.String() != "val" || KindDelete.String() != "del" {
		t.Fatal("Kind.String is wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatal("unknown kind formatting wrong")
	}
}

func TestStringFormatting(t *testing.T) {
	k := MakeInternalKey(nil, []byte("key"), 42, KindValue)
	if got := String(k); got != `"key"@42#val` {
		t.Fatalf("String = %q", got)
	}
	if got := String([]byte{1}); got != "badkey(01)" {
		t.Fatalf("String(bad) = %q", got)
	}
}
