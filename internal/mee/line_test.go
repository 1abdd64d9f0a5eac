package mee

// EncryptLines is an eager store of a run: SealLines, then the count the
// EPC layer makes when it stores the lines (CountEncrypted).
func (e *Engine) EncryptLines(s *Scratch, dst, src []byte, addr uint64, versions []uint64, tags []Tag) error {
	if err := e.SealLines(s, dst, src, addr, versions, tags); err != nil {
		return err
	}
	e.CountEncrypted(len(versions))
	return nil
}

// EncryptLine encrypts exactly LineBytes from src into dst (which may
// alias src) and returns the integrity tag: EncryptLines for a run of one.
func (e *Engine) EncryptLine(dst, src []byte, addr uint64, version uint64) (Tag, error) {
	var s Scratch
	var tag [1]Tag
	err := e.EncryptLines(&s, dst, src, addr, []uint64{version}, tag[:])
	return tag[0], err
}

// DecryptLine verifies the tag for the ciphertext in src and decrypts it
// into dst (which may alias src): DecryptLines for a run of one. It
// returns ErrIntegrity if the tag does not match.
func (e *Engine) DecryptLine(dst, src []byte, addr uint64, version uint64, tag Tag) error {
	var s Scratch
	_, err := e.DecryptLines(&s, dst, src, addr, []uint64{version}, []Tag{tag})
	return err
}
