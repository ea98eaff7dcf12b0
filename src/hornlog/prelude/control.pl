% Backtracking if-then-else: retries Then over every answer of Cond, or
% runs Else when Cond has no answers at all.

if_any(Cond,Then,Else):-
  new_engine(Cond,Cond,Engine),
  get(Engine,Answer),
  select_then_or_else(Answer,Engine,Cond,Then,Else).

select_then_or_else(no,_,_,_,Else):-Else.
select_then_or_else(the(BoundCond),Engine,Cond,Then,_):-
  backtrack_over_then(BoundCond,Engine,Cond,Then).

backtrack_over_then(Cond,_,Cond,Then):-Then.
backtrack_over_then(_,Engine,Cond,Then):-
  get(Engine,the(NewBoundCond)),
  backtrack_over_then(NewBoundCond,Engine,Cond,Then).

% First-solution if-then-else: Cond gets one shot, its bindings propagate.
% Its engine is freed as soon as nothing reaches it, like every engine.

if(Cond,Then,Else):-
  new_engine(Cond,Cond,Engine),
  get(Engine,Answer),
  select_if(Answer,Cond,Then,Else).

select_if(no,_Cond,_Then,Else):-Else.
select_if(the(Cond),Cond,Then,_Else):-Then.

not(Goal):-if(Goal,fail,true).

% All answers of a generator, in generation order: one fold over its
% engine appends each answer to the open end of a difference list.

findall(X,Goal,Xs):-
  new_engine(X,Goal,Engine),
  efoldl(Engine,snoc,Ys-Ys,Zs-[]),
  Xs=Zs.

snoc(Hs-[X|Ts],X,Hs-Ts).

% Exceptions: a throw is a yield of an exception/1 wrapper. catch runs its
% goal in a private engine, forwards ordinary answers transparently, and on
% an exception answer either handles it or rethrows to the next level.
% Which of these an answer is, and whether a handler matches, is told by
% clause selection, with no engine of its own. The nonvar guard keeps an
% unbound answer, such as that of catch(return(_),_,fail), an ordinary
% answer instead of binding it to exception(_).

throw(E):-return(exception(E)).

catch(Goal,Exception,OnException):-
  new_engine(Goal,Goal,Engine),
  get(Engine,Answer),
  catch_cont(Answer,Engine,Goal,Exception,OnException).

catch_cont(the(A),_,_,Exception,OnException):-nonvar(A),A=exception(E),!,
  catch_handle(E,Exception,OnException).
catch_cont(the(A),Engine,Goal,Exception,OnException):-
  catch_forward(A,Engine,Goal,Exception,OnException).

catch_handle(E,Exception,OnException):-E=Exception,!,OnException.
catch_handle(E,_,_):-throw(E).

catch_forward(Goal,_Engine,Goal,_Exception,_OnException).
catch_forward(_,Engine,Goal,Exception,OnException):-
  get(Engine,Answer),
  catch_cont(Answer,Engine,Goal,Exception,OnException).

% Keep the best answer of a generator under a binary comparison predicate.

best_of(Answer,Comparator,Generator):-
  new_engine(Answer,Generator,E),
  efoldl(E,
    compare_answers(Comparator),no,
  Best),
  Answer=Best.

compare_answers(Comparator,A1,A2,Best):-
  if((A1\==no,call(Comparator,A1,A2)),
    Best=A1,
    Best=A2
  ).
