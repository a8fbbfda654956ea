package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

func TestBatchCheck(t *testing.T) {
	docs := [][]byte{[]byte("alpha"), {}, []byte("gamma <&> \x00\xff")}
	want := func(id int) []byte { return docs[id] }
	plan := newBatchPlan(len(docs), want)
	if len(plan.ids) != 1 || len(plan.ids[0]) != 3 {
		t.Fatalf("plan %v, want one batch of three ids", plan.ids)
	}
	// What rlzd writes: encoding/json of its response structs.
	type doc struct {
		ID    int    `json:"id"`
		Data  []byte `json:"data"`
		Error string `json:"error,omitempty"`
	}
	var served bytes.Buffer
	if err := json.NewEncoder(&served).Encode(struct {
		Docs   []doc `json:"docs"`
		Errors int   `json:"errors"`
	}{Docs: []doc{{0, docs[0], ""}, {1, []byte{}, ""}, {2, docs[2], ""}}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), plan.resps[0]) {
		t.Fatalf("expected response\n%s\ndiffers from what encoding/json writes\n%s", plan.resps[0], served.Bytes())
	}
	if n, err := plan.check(0, served.Bytes(), want); err != nil || n != 5+0+len(docs[2]) {
		t.Errorf("check of the exact response = %d, %v", n, err)
	}
	// The same documents in another layout still pass, decoded.
	other := []byte(`{ "errors": 0, "docs": [ {"data":"YWxwaGE=","id":0}, {"id":1,"data":""}, {"id":2,"data":` +
		string(jsonLiteral(nil, docs[2])) + `} ] }`)
	if n, err := plan.check(0, other, want); err != nil || n != 5+len(docs[2]) {
		t.Errorf("check of a relaid response = %d, %v", n, err)
	}
	// One wrong byte is a mismatch.
	bad := bytes.Replace(served.Bytes(), []byte("YWxwaGE="), []byte("YWxwaGI="), 1)
	if _, err := plan.check(0, bad, want); !errors.Is(err, errMismatch) {
		t.Errorf("check of a wrong document = %v, want a mismatch", err)
	}
}
