% The engine/client exchange protocol: a client injects a goal, the engine
% runs it in its own context and yields the result back.

ask_engine(Engine,Goal,Answer):-
  to_engine(Engine,Goal),
  get(Engine,Answer).

engine_yield(Answer):-
  from_engine((Answer:-Goal)),
  call(Goal),
  return(Answer).

% Fold over the answers of an engine; no intermediate list is built.

efoldl(Engine,F,R1,R2):-
  get(Engine,X),
  efoldl_cont(X,Engine,F,R1,R2).

efoldl_cont(no,_Engine,_F,R,R).
efoldl_cont(the(X),Engine,F,R1,R2):-
  call(F,R1,X,R),
  efoldl(Engine,F,R,R2).

reverse(Xs,Ys):-
  new_engine(X,member(X,Xs),E),
  efoldl(E,reverse_cons,[],Ys).

reverse_cons(Y,X,[X|Y]).

% Addition as a foldable 3-place relation.

+(A,B,C):-C is A+B.

% Stream the answers of an engine one at a time through backtracking.

element_of(Engine,X):-
  get(Engine,the(A)),
  element_of_cont(Engine,A,X).

element_of_cont(_Engine,A,A).
element_of_cont(Engine,_,X):-element_of(Engine,X).

% A running sum kept as engine state: each injected goal reads the current
% sum and computes the next one.

sum_loop(S1):-engine_yield(S1=>S2),sum_loop(S2).

inc_test(R1,R2):-
  new_engine(_,sum_loop(0),E),
  ask_engine(E,(S1=>S2:-S2 is S1+2),R1),
  ask_engine(E,(S1=>S2:-S2 is S1+5),R2).
